// Package ido is the public face of this repository's reproduction of
// "iDO: Compiler-Directed Failure Atomicity for Nonvolatile Memory"
// (MICRO 2018). It wires together the simulated NVM device, the
// persistent-region manager, the indirect-lock manager, and the iDO
// runtime, exposing the workflow a downstream application uses:
//
//	db, _ := ido.Create(64 << 20)           // a fresh persistent region
//	t, _  := db.NewThread()                 // per-worker handle
//	t.Lock(l); t.Boundary(id, ido.RV(0, x)) // FASEs with region boundaries
//	...
//	db.SaveFile("heap.img")                 // survive process death
//	db2, _ := ido.OpenFile("heap.img")      // map it back
//	registerResumes(db2.Registry)           // the compiled recovery code
//	db2.Recover()                           // complete interrupted FASEs
//
// The compiler pipeline (internal/compile + internal/vm) provides the
// same mechanics for programs written in the repository's mini-IR; see
// cmd/idoc and cmd/idorecover.
package ido

import (
	"math/rand"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Re-exported building blocks.
type (
	// Thread is a worker's handle on the failure-atomicity runtime.
	Thread = persist.Thread
	// RegVal is one logged register (fixed slot + value).
	RegVal = persist.RegVal
	// ResumeRegistry maps region IDs to recovery entry points.
	ResumeRegistry = persist.ResumeRegistry
	// RecoveryStats describes a recovery pass.
	RecoveryStats = persist.RecoveryStats
	// Lock is a transient mutex with a persistent indirect holder.
	Lock = locks.Lock
	// CrashMode selects the crash adversary for Crash.
	CrashMode = nvm.CrashMode
)

// RV builds a RegVal.
func RV(reg int, val uint64) RegVal { return persist.RV(reg, val) }

// Crash adversaries (see the nvm package for semantics).
const (
	CrashDiscard    = nvm.CrashDiscard
	CrashRandom     = nvm.CrashRandom
	CrashPersistAll = nvm.CrashPersistAll
)

// Config tunes a DB.
type Config struct {
	// Coalesce enables persist coalescing (§IV-B). On by default.
	Coalesce bool
	// FlushNS / FenceNS / NTStoreNS / ExtraNS parameterize the simulated
	// NVM cost model; zero values are free (logical-behavior mode).
	FlushNS, FenceNS, NTStoreNS, ExtraNS int
}

// DefaultConfig enables coalescing with a cost-free device.
func DefaultConfig() Config { return Config{Coalesce: true} }

// DB is an open persistent region with an attached iDO runtime.
type DB struct {
	Region   *region.Region
	Locks    *locks.Manager
	Runtime  *core.Runtime
	Registry *ResumeRegistry
}

func attach(reg *region.Region, cfg Config) (*DB, error) {
	lm := locks.NewManager(reg)
	rt := core.New(core.Config{Coalesce: cfg.Coalesce})
	if err := rt.Attach(reg, lm); err != nil {
		return nil, err
	}
	return &DB{Region: reg, Locks: lm, Runtime: rt, Registry: persist.NewResumeRegistry()}, nil
}

// Create formats a fresh persistent region of size bytes.
func Create(size int, cfg Config) (*DB, error) {
	reg := region.Create(size, nvm.Config{
		Size: size, FlushNS: cfg.FlushNS, FenceNS: cfg.FenceNS,
		NTStoreNS: cfg.NTStoreNS, ExtraNS: cfg.ExtraNS,
	})
	return attach(reg, cfg)
}

// OpenFile maps a region image saved by SaveFile — the post-crash path.
// Register resume entries on db.Registry, then call Recover.
func OpenFile(path string, cfg Config) (*DB, error) {
	reg, err := region.OpenFile(path, nvm.Config{
		FlushNS: cfg.FlushNS, FenceNS: cfg.FenceNS,
		NTStoreNS: cfg.NTStoreNS, ExtraNS: cfg.ExtraNS,
	})
	if err != nil {
		return nil, err
	}
	return attach(reg, cfg)
}

// SaveFile persists the region's durable bytes to path (what would
// survive an immediate power failure; unflushed cache contents are
// excluded by construction).
func (db *DB) SaveFile(path string) error { return db.Region.SaveFile(path) }

// Crash simulates process death in place: volatile state is destroyed
// under the given adversary and a fresh DB is attached over the surviving
// bytes. rng drives CrashRandom and may be nil otherwise.
func (db *DB) Crash(mode CrashMode, rng *rand.Rand, cfg Config) (*DB, error) {
	reg2, err := db.Region.Crash(mode, rng)
	if err != nil {
		return nil, err
	}
	return attach(reg2, cfg)
}

// NewThread registers a worker with the runtime.
func (db *DB) NewThread() (Thread, error) { return db.Runtime.NewThread() }

// NewLock creates a lock with a persistent indirect holder.
func (db *DB) NewLock() (*Lock, error) { return db.Locks.Create() }

// LockAt returns the transient lock for a holder address (for locks whose
// holders the application stored in its own persistent structures).
func (db *DB) LockAt(holder uint64) *Lock { return db.Locks.ByHolder(holder) }

// Alloc allocates n bytes of persistent memory with the first n bytes
// zeroed. Size-class rounding may hand out a larger block; bytes past n
// are unspecified, so a caller that discovers extra capacity (e.g. via
// the allocator's BlockSize) must zero that slack itself before relying
// on it.
func (db *DB) Alloc(n int) (uint64, error) { return db.Region.Alloc.Alloc(n) }

// SetRoot durably publishes a root pointer (slots 1-15 are application
// slots).
func (db *DB) SetRoot(slot int, addr uint64) { db.Region.SetRoot(slot, addr) }

// Root reads a root pointer.
func (db *DB) Root(slot int) uint64 { return db.Region.Root(slot) }

// Recover completes every FASE a crash interrupted, using the resume
// entries registered on db.Registry (§III-C). Call it before the first
// NewThread: the iDO runtime then hands the recovered threads, and their
// logs, back out instead of creating new ones.
func (db *DB) Recover() (RecoveryStats, error) { return db.Runtime.Recover(db.Registry) }

// NewResumeRegistry returns an empty registry (for callers managing their
// own).
func NewResumeRegistry() *ResumeRegistry { return persist.NewResumeRegistry() }
