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
	"sync"
	"time"

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
type Runtime struct {
	reg *region.Region

	mu      sync.Mutex
	threads []*thread
	nextID  int
}

// New creates an NVML runtime.
func New() *Runtime { return &Runtime{} }

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "nvml" }

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, _ *locks.Manager) error {
	rt.reg = reg
	return nil
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	raw, err := rt.reg.Alloc.Alloc(logSize + nvm.LineSize)
	if err != nil {
		return nil, fmt.Errorf("nvml: allocating undo log: %w", err)
	}
	log := (raw + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	dev := rt.reg.Dev
	// Deferred unlock: the device calls below panic with nvm.CrashSignal
	// under armed injection, and the mutex must not survive the unwind.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	dev.Store64(log+logCount, 0)
	dev.Store64(log+logNext, rt.reg.Root(region.RootNVMLHead))
	dev.Store64(log+logGen, 1) // 1 so recycled heap bytes (gen 0) never match
	dev.PersistRange(log, logBase)
	dev.Fence()
	rt.reg.SetRoot(region.RootNVMLHead, log)
	t := &thread{rt: rt, id: rt.nextID, log: log, gen: 1}
	t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("nvml/t%d", t.id))
	rt.nextID++
	rt.threads = append(rt.threads, t)
	return t, nil
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

// Recover rolls back any FASE whose undo log was never truncated,
// applying the records newest-first. With no dependence tracking this is
// sound only under NVML's programming model (FASEs on private or
// externally synchronized data).
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	start := time.Now()
	dev := rt.reg.Dev
	attempt := dev.EnterRecovery()
	defer dev.ExitRecovery()
	var stats persist.RecoveryStats
	stats.Attempt = attempt
	stats.Audit = &obs.RecoveryAudit{Runtime: rt.Name(), Attempt: attempt}
	rc := dev.Tracer().ThreadRing("nvml/recover")
	scanT0 := rc.Clock()
	for log := rt.reg.Root(region.RootNVMLHead); log != 0; log = dev.Load64(log + logNext) {
		// The log carries no thread id; number audits by scan position.
		audit := obs.ThreadAudit{ThreadID: stats.Threads, LogAddr: log, Action: obs.AuditIdle}
		stats.Threads++
		n := int(dev.Load64(log + logCount))
		if n == 0 {
			stats.Audit.Add(audit)
			continue
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
		stats.Audit.Add(audit)
	}
	rc.Span(obs.KRecovery, obs.PhaseScan, stats.LogEntries, scanT0)
	stats.Elapsed = time.Since(start)
	return stats, nil
}

type thread struct {
	rt  *Runtime
	id  int
	log uint64
	gen uint64 // current log generation (cached from log+logGen)

	depth int
	used  int
	dirty []uint64

	rc           *obs.Ring // event ring; nil when tracing is off
	faseT0       int64     // tracer clock at FASE entry
	faseLogBytes uint64    // undo payload written during the current FASE

	stats persist.RuntimeStats
}

func (t *thread) ID() int        { return t.id }
func (t *thread) Exec(op func()) { op() }

// Lock takes the mutex with no persistence bookkeeping; the outermost
// lock still opens a FASE so lock-based callers get undo protection.
func (t *thread) Lock(l *locks.Lock) {
	l.Acquire()
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	t.rc.Emit(obs.KLockAcq, l.Holder(), 0)
	t.depth++
}

func (t *thread) Unlock(l *locks.Lock) {
	if t.depth == 1 {
		t.commit()
	}
	t.rc.Emit(obs.KLockRel, l.Holder(), 0)
	t.depth--
	l.Release()
}

func (t *thread) BeginDurable() {
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	t.depth++
}

func (t *thread) EndDurable() {
	if t.depth == 1 {
		t.commit()
	}
	t.depth--
}

// Store64 appends the undo record (fenced before the store can reach
// NVM), then stores in place.
func (t *thread) Store64(addr, val uint64) {
	dev := t.rt.reg.Dev
	if t.depth == 0 {
		dev.Store64(addr, val)
		return
	}
	if t.used == maxUndo {
		panic(fmt.Sprintf("nvml: FASE exceeded %d undo records", maxUndo))
	}
	old := dev.Load64(addr)
	e := t.log + logBase + uint64(t.used)*entrySize
	dev.Store64(e, addr)
	dev.Store64(e+8, old)
	dev.Store64(e+16, entryTag(t.gen, addr, old))
	t.used++
	dev.Store64(t.log+logCount, uint64(t.used))
	dev.CLWB(e)
	dev.CLWB(t.log + logCount)
	dev.Fence()
	dev.Store64(addr, val)
	t.trackLine(addr)
	t.stats.Stores++
	t.stats.LoggedEntries++
	t.stats.LoggedBytes += entrySize
	t.faseLogBytes += entrySize
	t.rc.Emit(obs.KLogAppend, entrySize, addr)
}

func (t *thread) trackLine(addr uint64) {
	line := addr &^ (nvm.LineSize - 1)
	for _, l := range t.dirty {
		if l == line {
			return
		}
	}
	t.dirty = append(t.dirty, line)
}

func (t *thread) Load64(addr uint64) uint64 { return t.rt.reg.Dev.Load64(addr) }

// Boundary is ignored: NVML has no region concept.
func (t *thread) Boundary(uint64, ...persist.RegVal) {}

// commit flushes the FASE's data, then truncates the undo log. The
// generation bump rides in the same header line as the count, so the
// surviving entry bytes stop matching whichever of the two words reaches
// NVM first.
func (t *thread) commit() {
	dev := t.rt.reg.Dev
	for _, line := range t.dirty {
		dev.CLWB(line)
	}
	t.dirty = t.dirty[:0]
	dev.Fence()
	t.gen++
	dev.Store64(t.log+logGen, t.gen)
	dev.Store64(t.log+logCount, 0)
	dev.CLWB(t.log + logCount)
	dev.Fence()
	t.used = 0
	t.stats.FASEs++
	if t.rc != nil {
		t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
		t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
	}
}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
