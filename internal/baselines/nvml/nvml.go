// Package nvml implements the NVML baseline (Intel's persistent-memory
// library, now PMDK) as characterized in the iDO paper: a library-based
// UNDO-logging system with programmer-delineated FASEs. There is no
// compiler integration and no synchronization support: the programmer
// annotates every persistent store inside a FASE (our Store64 inside a
// delineated section), locks are ordinary mutexes with no persistence
// bookkeeping, and no cross-FASE dependences are tracked. Each annotated
// store appends an undo record that is fenced durable before the store;
// commit flushes the FASE's data and truncates the log.
package nvml

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/lineset"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

const (
	// Per-thread undo log layout. Entries are {addr, old, tag, pad}: the
	// tag word hashes the log's generation with the entry payload, so a
	// recovery scan can reject a torn append (count word persisted before
	// the entry words) and — because the log area is reused across FASEs
	// without erasure — a stale entry from an earlier, committed FASE
	// that a torn count would otherwise expose as live. Rolling such an
	// entry back would revert committed data.
	logCount  = 0 // live entry count; 0 = no FASE in flight
	logNext   = 8
	logGen    = 16 // generation, bumped at every truncation
	logBase   = 64
	entrySize = 32
	maxUndo   = 2048
	logSize   = logBase + maxUndo*entrySize
)

// entryTag hashes (gen, addr, old) into the per-entry tag word.
func entryTag(gen, addr, old uint64) uint64 {
	x := gen + 0x632be59bd9b4e019
	for _, w := range [...]uint64{addr, old} {
		x ^= w
		x *= 0x9e3779b97f4a7c15
		x ^= x >> 29
	}
	return x
}

// Runtime is the NVML baseline runtime.
type Runtime struct{ persist.Frame }

// New creates an NVML runtime.
func New() *Runtime {
	return &Runtime{persist.NewFrame("nvml", persist.Logs{Size: logSize, Align: nvm.LineSize, Root: region.RootNVMLHead, Next: logNext})}
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	dev := rt.Reg.Dev
	t := &thread{rt: rt, gen: 1}
	reused, err := rt.Frame.NewThread(&t.ThreadFrame, func(log uint64, _ int) error {
		dev.Store64(log+logCount, 0)
		dev.Store64(log+logGen, 1) // 1 so recycled heap bytes (gen 0) never match
		return nil
	})
	if err != nil {
		return nil, err
	}
	if reused {
		t.gen = dev.Load64(t.Log + logGen)
	}
	return t, nil
}

// Recover rolls back any FASE whose undo log was never truncated,
// applying the records newest-first. With no dependence tracking this is
// sound only under NVML's programming model (FASEs on private or
// externally synchronized data).
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	return rt.Frame.Recover(rt.rollBack, nil)
}

func (rt *Runtime) rollBack(stats *persist.Pass, log uint64, audit *obs.ThreadAudit) error {
	dev := rt.Reg.Dev
	n := int(dev.Load64(log + logCount))
	if n == 0 {
		return nil
	}
	if n > maxUndo {
		n = maxUndo
	}
	// Undo application is fenced durable before the truncation store,
	// so a crash anywhere in this pass leaves the log either intact
	// (the next pass re-applies the same old values — idempotent) or
	// already truncated. Entries whose tag does not match the current
	// generation are torn or stale and are skipped.
	gen := dev.Load64(log + logGen)
	applied := 0
	for i := n - 1; i >= 0; i-- {
		e := log + logBase + uint64(i)*entrySize
		addr := dev.Load64(e)
		old := dev.Load64(e + 8)
		stats.LogEntries++
		if dev.Load64(e+16) != entryTag(gen, addr, old) {
			continue
		}
		if err := rt.CheckEntry(log, i, addr, 8, 8); err != nil {
			return err
		}
		dev.Store64(addr, old)
		dev.CLWB(addr)
		applied++
	}
	dev.Fence()
	dev.Store64(log+logGen, gen+1)
	dev.Store64(log+logCount, 0)
	dev.CLWB(log + logCount)
	dev.Fence()
	stats.RolledBack++
	audit.Action = obs.AuditRolledBack
	audit.WordsRestored = applied
	return nil
}

type thread struct {
	persist.ThreadFrame
	rt    *Runtime
	gen   uint64 // current log generation (cached from log+logGen)
	used  int
	dirty lineset.Set // data lines to write back at commit
}

// Unlock commits when the outermost lock is released: NVML's locks carry
// no persistence bookkeeping, but a lock-based caller still gets undo
// protection over its outermost critical section.
func (t *thread) Unlock(l *locks.Lock) {
	if t.Outermost() {
		t.commit()
	}
	t.ThreadFrame.Unlock(l)
}

func (t *thread) EndDurable() {
	if t.Outermost() {
		t.commit()
	}
	t.ThreadFrame.EndDurable()
}

// Store64 appends the undo record (fenced before the store can reach
// NVM), then stores in place.
func (t *thread) Store64(addr, val uint64) {
	dev := t.rt.Reg.Dev
	if t.Depth == 0 {
		dev.Store64(addr, val)
		return
	}
	if t.used == maxUndo {
		panic(fmt.Sprintf("nvml: FASE exceeded %d undo records", maxUndo))
	}
	old := dev.Load64(addr)
	e := t.Log + logBase + uint64(t.used)*entrySize
	dev.Store64(e, addr)
	dev.Store64(e+8, old)
	dev.Store64(e+16, entryTag(t.gen, addr, old))
	t.used++
	dev.Store64(t.Log+logCount, uint64(t.used))
	dev.CLWB(e)
	dev.CLWB(t.Log + logCount)
	dev.Fence()
	dev.Store64(addr, val)
	t.dirty.Add(addr &^ (nvm.LineSize - 1))
	t.Stats.Stores++
	t.Append(entrySize, addr)
}

func (t *thread) Load64(addr uint64) uint64 { return t.rt.Reg.Dev.Load64(addr) }

// commit flushes the FASE's data, then truncates the undo log. The
// generation bump rides in the same header line as the count, so the
// surviving entry bytes stop matching whichever of the two words reaches
// NVM first.
func (t *thread) commit() {
	dev := t.rt.Reg.Dev
	for _, line := range t.dirty.Lines() {
		dev.CLWB(line)
	}
	t.dirty.Reset()
	dev.Fence()
	t.gen++
	dev.Store64(t.Log+logGen, t.gen)
	dev.Store64(t.Log+logCount, 0)
	dev.CLWB(t.Log + logCount)
	dev.Fence()
	t.used = 0
}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
