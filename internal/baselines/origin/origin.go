// Package origin implements the uninstrumented baseline ("Origin" in §V):
// plain stores and loads with no logging, no write-backs, and no fences.
// It provides the performance ceiling and is, by construction, crash
// vulnerable — Recover is a no-op.
package origin

import (
	"sync"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Runtime is the crash-vulnerable baseline runtime.
type Runtime struct {
	reg *region.Region

	mu      sync.Mutex
	threads []*thread
	nextID  int
}

// New creates an origin runtime.
func New() *Runtime { return &Runtime{} }

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "origin" }

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, _ *locks.Manager) error {
	rt.reg = reg
	return nil
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	rt.mu.Lock()
	t := &thread{rt: rt, id: rt.nextID}
	rt.nextID++
	rt.threads = append(rt.threads, t)
	rt.mu.Unlock()
	return t, nil
}

// Recover implements persist.Runtime; origin cannot recover anything.
// The audit is present but empty, so callers can print it uniformly.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	attempt := rt.reg.Dev.EnterRecovery()
	defer rt.reg.Dev.ExitRecovery()
	return persist.RecoveryStats{
		Attempt: attempt,
		Audit:   &obs.RecoveryAudit{Runtime: rt.Name(), Attempt: attempt},
	}, nil
}

// Stats implements persist.Runtime.
func (rt *Runtime) Stats() persist.RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out persist.RuntimeStats
	for _, t := range rt.threads {
		out.Add(&t.stats)
	}
	return out
}

type thread struct {
	rt    *Runtime
	id    int
	depth int
	stats persist.RuntimeStats
}

func (t *thread) ID() int        { return t.id }
func (t *thread) Exec(op func()) { op() }

func (t *thread) Lock(l *locks.Lock) {
	l.Acquire()
	t.depth++
}

func (t *thread) Unlock(l *locks.Lock) {
	if t.depth == 1 {
		t.stats.FASEs++
	}
	t.depth--
	l.Release()
}

func (t *thread) BeginDurable() { t.depth++ }
func (t *thread) EndDurable() {
	if t.depth == 1 {
		t.stats.FASEs++
	}
	t.depth--
}

func (t *thread) Store64(addr, val uint64) {
	t.rt.reg.Dev.Store64(addr, val)
	if t.depth > 0 {
		t.stats.Stores++
	}
}

func (t *thread) Load64(addr uint64) uint64 { return t.rt.reg.Dev.Load64(addr) }

// Boundary is ignored: origin logs nothing.
func (t *thread) Boundary(uint64, ...persist.RegVal) {}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
