// Package core implements the iDO runtime (the paper's primary
// contribution): failure atomicity for lock-delineated FASEs via
// idempotent-region logging and recovery-by-resumption.
//
// Per-thread state lives in an iDO_Log in NVM (Fig. 3). The log — its
// layout, the boundary / publish / compact protocol, the lock_array and
// the recovery walk — is internal/idolog, shared with the VM that runs
// compiled IR; this package binds it to the persist.Runtime API that
// hand-written FASEs use: a Thread is a Log plus the persist.Thread
// surface, and recovery's jump to recovery_pc is a lookup in the
// application's ResumeRegistry (a registered resume closure standing in
// for the compiler's resume target).
package core

import (
	"fmt"
	"slices"

	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Config tunes the runtime.
type Config struct {
	// Coalesce enables persist coalescing (§IV-B): one write-back covers
	// several logged registers. When false every logged word pays its own
	// (the ablation configuration).
	Coalesce bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return Config{Coalesce: true} }

// Runtime is the iDO failure-atomicity runtime.
type Runtime struct {
	reg *region.Region
	lm  *locks.Manager

	stride uint64 // the logs' word stride: 8 when coalescing, a cache line when not

	threads persist.Threads[*Thread] // a spare is a thread the last Recover adopted
}

// New creates an iDO runtime with the given configuration.
func New(cfg Config) *Runtime {
	rt := &Runtime{stride: 8}
	if !cfg.Coalesce {
		rt.stride = nvm.LineSize
	}
	return rt
}

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "ido" }

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, lm *locks.Manager) error {
	rt.reg, rt.lm = reg, lm
	return nil
}

// NewThread registers a worker. It first hands out a thread Recover
// adopted, oldest log first, which keeps its log and id; only when none
// is left does it create an iDO_Log, one slot per persist register, on
// the region's log list.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	rt.threads.Lock()
	defer rt.threads.Unlock()
	t, ok := rt.threads.Take()
	if ok {
		t.Reuse(rt.Name())
		return t, nil
	}
	t = &Thread{}
	if err := t.Create(rt.reg, rt.Name(), rt.threads.Next(), persist.MaxOutputs, rt.stride, 0, false); err != nil {
		return nil, err
	}
	rt.threads.Add(t.ID(), &t.Stats)
	return t, nil
}

// Thread is a worker's iDO handle: the thread's log, whose Lock, Unlock,
// Boundary, Store64, Load64 and durable-section methods are the
// persist.Thread ones, called directly. It must be used from one goroutine.
type Thread struct {
	idolog.Log
	outScratch [persist.MaxOutputs]persist.RegVal
}

var _ persist.Thread = (*Thread)(nil)

// Exec implements persist.Thread; iDO never re-executes speculatively.
func (t *Thread) Exec(op func()) { op() }

// OutputScratch implements persist.OutputScratcher: callers assemble
// each Boundary output set in this thread-owned buffer, so spreading it
// into the variadic Boundary never heap-allocates. Boundary only reads
// the slice, so reuse across calls is safe.
func (t *Thread) OutputScratch() []persist.RegVal { return t.outScratch[:0] }

// Stats implements persist.Runtime. Call only while worker threads are
// quiescent.
func (rt *Runtime) Stats() persist.RuntimeStats { return rt.threads.Stats() }

// Recover implements persist.Runtime with the shared walk (§III-C); a
// crashed thread's resume step is the entry rr holds for its region.
// When it succeeds, every thread it adopted whose log has the layout
// NewThread creates is kept for NewThread, so the log list grows only
// when an incarnation runs more threads than any before it. It must run
// before the runtime hands out its first thread.
func (rt *Runtime) Recover(rr *persist.ResumeRegistry) (persist.RecoveryStats, error) {
	if err := rt.threads.Recovering(rt.Name()); err != nil {
		return persist.RecoveryStats{}, err
	}
	var adopted []*Thread
	st, err := idolog.Recover(rt.reg, rt.lm, rt.Name(), func(id int, pc uint64) (*idolog.Log, func([]uint64), error) {
		t := &Thread{}
		adopted = append(adopted, t)
		rt.threads.Lock()
		rt.threads.Add(id, &t.Stats)
		rt.threads.Unlock()
		if pc == 0 {
			return &t.Log, nil, nil
		}
		regionID, _, _ := idolog.Unpack(pc)
		fn, ok := rr.Lookup(regionID)
		if !ok {
			return nil, nil, fmt.Errorf("ido: no resume entry registered for region %#x (thread %d)", regionID, id)
		}
		return &t.Log, func(rf []uint64) { fn(t, rf) }, nil
	})
	if err != nil {
		return st, err
	}
	rt.threads.Keep(slices.DeleteFunc(adopted, func(t *Thread) bool { return !t.Fits(persist.MaxOutputs, rt.stride, false) }))
	return st, nil
}

var _ persist.Runtime = (*Runtime)(nil)
