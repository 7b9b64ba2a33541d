// Package persist defines the failure-atomicity runtime API that iDO and
// every baseline system implement. Application code (the data structures
// and key-value stores in this repository) is written once against
// Runtime/Thread; swapping the runtime swaps the persistence mechanism,
// exactly as the paper swaps instrumentation back ends over the same
// FASE-annotated sources (§V).
package persist

import (
	"fmt"
	"time"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/region"
)

// MaxOutputs bounds the number of register outputs a single idempotent
// region may log (the iDO intRF has a fixed slot per register, Fig. 3).
const MaxOutputs = 16

// Runtime is one failure-atomicity system bound to a persistent region.
type Runtime interface {
	// Name identifies the system ("ido", "atlas", ...).
	Name() string

	// Attach binds the runtime to a region and lock manager. It is called
	// once before any thread is created, and again on a fresh runtime
	// value after a crash, before Recover.
	Attach(reg *region.Region, lm *locks.Manager) error

	// NewThread registers a worker thread with the runtime.
	NewThread() (Thread, error)

	// Recover completes (resumption systems) or rolls back (UNDO/REDO
	// systems) every FASE that a crash interrupted, leaving persistent
	// data consistent with no locks held. rr supplies the resume entry
	// points compiled into the application; runtimes that do not resume
	// ignore it.
	Recover(rr *ResumeRegistry) (RecoveryStats, error)

	// Stats aggregates counters across all threads of this runtime.
	Stats() RuntimeStats
}

// Thread is a worker's handle on a runtime. A Thread must be used from a
// single goroutine.
type Thread interface {
	// ID is the stable thread index assigned at registration.
	ID() int

	// Exec runs one complete operation (one or more whole FASEs).
	// Speculative runtimes may re-execute op on conflict, so op must
	// confine its side effects to Thread stores and local variables.
	Exec(op func())

	// Lock and Unlock delineate lock-inferred FASEs.
	Lock(l *locks.Lock)
	Unlock(l *locks.Lock)

	// BeginDurable and EndDurable delineate programmer-annotated FASEs
	// (durable code regions, §II-B), used by single-threaded code.
	BeginDurable()
	EndDurable()

	// Store64 and Load64 access persistent data. Inside a FASE they are
	// instrumented per the runtime's mechanism; outside they are plain.
	Store64(addr, val uint64)
	Load64(addr uint64) uint64

	// Boundary marks an idempotent-region boundary, logging the ending
	// region's OutputSet (iDO §III-A) as (register, value) pairs. The
	// pairs are appended to the FASE's log, never written over ones the
	// current recovery_pc still needs — the property §IV-A(c)'s
	// live-range extension guarantees in the real compiler — and a
	// resumed region gets every register as last logged in this FASE, 0
	// if never. Non-iDO runtimes ignore it.
	Boundary(regionID uint64, outputs ...RegVal)
}

// RegVal is one logged register: a fixed slot index and its value.
type RegVal struct {
	Reg int
	Val uint64
}

// RV builds a RegVal.
func RV(reg int, val uint64) RegVal { return RegVal{Reg: reg, Val: val} }

// OutputScratcher is an optional Thread extension: a thread-owned
// reusable buffer for assembling a Boundary output set. Boundary must
// copy its outputs before returning (iDO's does — into the persistent log
// and its own register mirror), so the same buffer is safe to hand
// back on every call. Threads are single-goroutine by contract, which is
// what makes a single per-thread buffer sound.
type OutputScratcher interface {
	// OutputScratch returns a zero-length slice with at least MaxOutputs
	// capacity, valid until the next OutputScratch call on this thread.
	OutputScratch() []RegVal
}

// Outs returns a zero-length buffer for building t's next Boundary
// output set: t's reusable scratch when the runtime offers one, a fresh
// slice otherwise. Appending up to MaxOutputs RegVals and spreading the
// result into Boundary is then allocation-free on scratch-providing
// runtimes — variadic slices built at an interface call site otherwise
// defeat escape analysis and heap-allocate on every FASE.
func Outs(t Thread) []RegVal {
	if s, ok := t.(OutputScratcher); ok {
		return s.OutputScratch()
	}
	return make([]RegVal, 0, MaxOutputs)
}

// ResumeFunc re-executes an interrupted FASE from the entry of the
// idempotent region identified at registration, given the thread handle
// and the full logged register file (rf[i] is register slot i), and runs
// forward to the end of the FASE. It is the code the iDO compiler would
// emit for the recovery jump target.
type ResumeFunc func(t Thread, rf []uint64)

// ResumeRegistry maps region IDs to resume entry points. Applications
// register every region that can appear as a recovery_pc.
type ResumeRegistry struct {
	m map[uint64]ResumeFunc
}

// NewResumeRegistry returns an empty registry.
func NewResumeRegistry() *ResumeRegistry {
	return &ResumeRegistry{m: make(map[uint64]ResumeFunc)}
}

// Register installs the resume entry for a region ID. Registering the
// same ID twice panics: region IDs must be globally unique.
func (r *ResumeRegistry) Register(regionID uint64, fn ResumeFunc) {
	if regionID == 0 {
		panic("persist: region ID 0 is reserved for 'not in FASE'")
	}
	if _, dup := r.m[regionID]; dup {
		panic(fmt.Sprintf("persist: duplicate region ID %#x", regionID))
	}
	r.m[regionID] = fn
}

// Lookup returns the resume entry for a region ID.
func (r *ResumeRegistry) Lookup(regionID uint64) (ResumeFunc, bool) {
	fn, ok := r.m[regionID]
	return fn, ok
}

// Len reports the number of registered regions.
func (r *ResumeRegistry) Len() int { return len(r.m) }

// RecoveryStats describes one recovery pass.
type RecoveryStats struct {
	Threads    int           // per-thread logs examined
	Resumed    int           // FASEs completed by resumption
	RolledBack int           // FASEs undone by log replay
	LogEntries uint64        // log entries scanned
	Elapsed    time.Duration // wall time of the pass

	// Attempt is the recovery-attempt index of this pass (0 for the
	// first pass over its device, nvm.Device.EnterRecovery). A pass that
	// runs after an earlier pass crashed mid-recovery reports a higher
	// Attempt — the re-entrancy counter the chaos harness asserts on.
	Attempt int

	// Audit is the per-thread audit trail of what this pass did — which
	// locks were re-acquired, which region was resumed at which
	// recovery_pc, how many words were restored. Runtimes populate it
	// unconditionally (it is cheap); cmd/idorecover prints it.
	Audit *obs.RecoveryAudit
}

// HistStores is the bucket count for the stores-per-region histogram:
// buckets 0..HistStores-2 count exactly, the last bucket is "more".
const HistStores = 33

// HistOutputs is the bucket count for the live-in/output-registers
// histogram.
const HistOutputs = MaxOutputs + 1

// RuntimeStats aggregates execution counters for one runtime instance.
type RuntimeStats struct {
	FASEs         uint64 // failure-atomic sections completed
	Regions       uint64 // idempotent regions executed (iDO only)
	Stores        uint64 // persistent stores issued inside FASEs
	LoggedEntries uint64 // log records written (stores for UNDO/REDO/JUSTDO, regions for iDO)
	LoggedBytes   uint64 // bytes of log payload written
	Aborts        uint64 // speculative re-executions (transactional runtimes)

	// StoresPerRegion[i] counts dynamic regions with i persistent stores
	// (last bucket: >= HistStores-1). Populated by iDO and JUSTDO
	// (for JUSTDO every region is one store).
	StoresPerRegion [HistStores]uint64

	// OutputsPerRegion[i] counts dynamic regions that logged i register
	// outputs — the native-side proxy for Fig. 8's live-in registers.
	OutputsPerRegion [HistOutputs]uint64
}

// Add accumulates other into s.
func (s *RuntimeStats) Add(other *RuntimeStats) {
	s.FASEs += other.FASEs
	s.Regions += other.Regions
	s.Stores += other.Stores
	s.LoggedEntries += other.LoggedEntries
	s.LoggedBytes += other.LoggedBytes
	s.Aborts += other.Aborts
	for i := range s.StoresPerRegion {
		s.StoresPerRegion[i] += other.StoresPerRegion[i]
	}
	for i := range s.OutputsPerRegion {
		s.OutputsPerRegion[i] += other.OutputsPerRegion[i]
	}
}
