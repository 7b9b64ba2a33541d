// Package origin implements the uninstrumented baseline ("Origin" in §V):
// plain stores and loads with no logging, no write-backs, and no fences.
// It provides the performance ceiling and is, by construction, crash
// vulnerable — Recover is a no-op.
package origin

import (
	"github.com/ido-nvm/ido/internal/persist"
)

// Runtime is the crash-vulnerable baseline runtime. It keeps no logs, so
// its threads have no trace ring.
type Runtime struct{ persist.Frame }

// New creates an origin runtime.
func New() *Runtime { return &Runtime{persist.NewFrame("origin", persist.Logs{})} }

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	t := &thread{rt: rt}
	if _, err := rt.Frame.NewThread(&t.ThreadFrame, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// Recover implements persist.Runtime; origin cannot recover anything.
// The audit is present but empty, so callers can print it uniformly.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	return persist.Recover(rt.Reg, rt.Name(), nil)
}

// thread takes its FASE verbs from the frame: a lock is a plain mutex.
type thread struct {
	persist.ThreadFrame
	rt *Runtime
}

func (t *thread) Store64(addr, val uint64) {
	t.rt.Reg.Dev.Store64(addr, val)
	if t.Depth > 0 {
		t.Stats.Stores++
	}
}

func (t *thread) Load64(addr uint64) uint64 { return t.rt.Reg.Dev.Load64(addr) }

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
