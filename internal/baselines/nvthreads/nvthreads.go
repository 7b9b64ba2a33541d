// Package nvthreads implements the NVThreads baseline (Hsu et al., EuroSys
// 2017) as characterized in the iDO paper: a REDO-logging, lock-based
// system that operates at the granularity of OS pages. Inside a critical
// section every first store to a page takes a private copy-on-write copy;
// reads observe the private copies. At the outermost lock release the
// dirty pages are streamed to a per-thread NVM redo log, a commit record
// is published, and the pages are applied to their home locations and
// written back. The 4 KB granularity is what makes NVThreads pay the
// heaviest per-FASE persistence cost in Fig. 5.
//
// Limitation (inherent to the design, not this implementation): buffered
// pages publish only at the FASE's outermost release, so critical
// sections that release a lock mid-FASE — hand-over-hand traversals —
// would hide updates from the thread that next acquires the released
// lock. The paper accordingly evaluates NVThreads only on Memcached's
// properly nested coarse locking (Fig. 5), never on the hand-over-hand
// microbenchmarks of Fig. 7; this repository does the same.
package nvthreads

import (
	"fmt"
	"sync"
	"time"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

const (
	// PageSize is the protection granularity NVThreads tracks.
	PageSize  = 4096
	pageWords = PageSize / 8
	maxPages  = 16 // dirty pages per critical section

	// Per-thread redo log layout.
	logState = 0 // 1 = committed
	logCount = 8
	logNext  = 16
	logBase  = 64 // maxPages slots of {pageAddr, 512 words}
	slotSize = 8 + PageSize
	logSize  = logBase + maxPages*slotSize
	// logPages rounds the log up to whole pages. The log MUST occupy
	// pages of its own: commit applies whole dirty pages home, so if the
	// log shared a page with workload data, applying that page would
	// overwrite the log's own commit record with the COW snapshot taken
	// mid-FASE — a crash between two page applies would then find
	// logState=0 and skip the replay, losing the unapplied half of a
	// committed FASE (found by the chaos harness's delete-heavy cache
	// workload, where the table and the log both sat in page 0).
	logPages = (logSize + PageSize - 1) / PageSize
)

// Runtime is the NVThreads baseline runtime.
type Runtime struct {
	reg *region.Region

	mu      sync.Mutex
	threads []*thread
	nextID  int
}

// New creates an NVThreads runtime.
func New() *Runtime { return &Runtime{} }

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "nvthreads" }

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, _ *locks.Manager) error {
	rt.reg = reg
	return nil
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	// Page-align and pad so every log page is exclusively the log's (see
	// logPages above).
	raw, err := rt.reg.Alloc.Alloc(logPages*PageSize + PageSize)
	if err != nil {
		return nil, fmt.Errorf("nvthreads: allocating page log: %w", err)
	}
	log := (raw + PageSize - 1) &^ (PageSize - 1)
	dev := rt.reg.Dev
	// Deferred unlock: the device calls below panic with nvm.CrashSignal
	// under armed injection, and the mutex must not survive the unwind.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	dev.Store64(log+logState, 0)
	dev.Store64(log+logCount, 0)
	dev.Store64(log+logNext, rt.reg.Root(region.RootNVThreadsHead))
	dev.PersistRange(log, logBase)
	dev.Fence()
	rt.reg.SetRoot(region.RootNVThreadsHead, log)
	t := &thread{rt: rt, id: rt.nextID, log: log, pages: make(map[uint64][]uint64)}
	t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("nvthreads/t%d", t.id))
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

// Recover replays committed-but-unapplied page logs (REDO replay is
// idempotent); uncommitted private pages died with the volatile state.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	start := time.Now()
	dev := rt.reg.Dev
	attempt := dev.EnterRecovery()
	defer dev.ExitRecovery()
	var stats persist.RecoveryStats
	stats.Attempt = attempt
	stats.Audit = &obs.RecoveryAudit{Runtime: rt.Name(), Attempt: attempt}
	rc := dev.Tracer().ThreadRing("nvthreads/recover")
	scanT0 := rc.Clock()
	buf := make([]uint64, pageWords)
	for log := rt.reg.Root(region.RootNVThreadsHead); log != 0; log = dev.Load64(log + logNext) {
		// The log carries no thread id; number audits by scan position.
		audit := obs.ThreadAudit{ThreadID: stats.Threads, LogAddr: log, Action: obs.AuditIdle}
		stats.Threads++
		if dev.Load64(log+logState) != 1 {
			stats.Audit.Add(audit)
			continue
		}
		n := int(dev.Load64(log + logCount))
		if n > maxPages {
			n = maxPages
		}
		for i := 0; i < n; i++ {
			slot := log + logBase + uint64(i)*slotSize
			page := dev.Load64(slot)
			dev.ReadWords(slot+8, buf)
			dev.WriteWords(page, buf)
			dev.PersistRange(page, PageSize)
			stats.LogEntries++
		}
		dev.Fence()
		dev.StoreNT(log+logState, 0)
		dev.Fence()
		stats.RolledBack++
		audit.Action = obs.AuditReplayed
		audit.WordsRestored = n * pageWords
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

	depth     int
	pages     map[uint64][]uint64 // page base -> private copy
	pageOrder []uint64

	rc     *obs.Ring // event ring; nil when tracing is off
	faseT0 int64     // tracer clock at FASE entry

	stats persist.RuntimeStats
}

func (t *thread) ID() int        { return t.id }
func (t *thread) Exec(op func()) { op() }

func (t *thread) Lock(l *locks.Lock) {
	l.Acquire()
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
	}
	t.rc.Emit(obs.KLockAcq, l.Holder(), 0)
	t.depth++
}

func (t *thread) Unlock(l *locks.Lock) {
	if t.depth == 1 {
		t.endFASE()
	}
	t.rc.Emit(obs.KLockRel, l.Holder(), 0)
	t.depth--
	l.Release()
}

func (t *thread) BeginDurable() {
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
	}
	t.depth++
}

func (t *thread) EndDurable() {
	if t.depth == 1 {
		t.endFASE()
	}
	t.depth--
}

// endFASE commits the buffered pages and records the FASE's trace events.
func (t *thread) endFASE() {
	logBytes := uint64(len(t.pageOrder)) * PageSize
	t.commit()
	t.stats.FASEs++
	if t.rc != nil {
		t.rc.Span(obs.KFASE, logBytes, 0, t.faseT0)
		t.rc.Observe(obs.HLogBytesPerFASE, logBytes)
	}
}

func (t *thread) pageFor(addr uint64, create bool) ([]uint64, uint64) {
	base := addr &^ (PageSize - 1)
	if p, ok := t.pages[base]; ok {
		return p, base
	}
	if !create {
		return nil, base
	}
	if len(t.pageOrder) == maxPages {
		panic(fmt.Sprintf("nvthreads: critical section dirtied more than %d pages", maxPages))
	}
	p := make([]uint64, pageWords)
	t.rt.reg.Dev.ReadWords(base, p) // copy-on-write fault
	t.pages[base] = p
	t.pageOrder = append(t.pageOrder, base)
	return p, base
}

func (t *thread) Store64(addr, val uint64) {
	if t.depth == 0 {
		t.rt.reg.Dev.Store64(addr, val)
		return
	}
	p, base := t.pageFor(addr, true)
	p[(addr-base)/8] = val
	t.stats.Stores++
}

func (t *thread) Load64(addr uint64) uint64 {
	if t.depth > 0 {
		if p, base := t.pageFor(addr, false); p != nil {
			return p[(addr-base)/8]
		}
	}
	return t.rt.reg.Dev.Load64(addr)
}

// Boundary is ignored: NVThreads logs whole pages.
func (t *thread) Boundary(uint64, ...persist.RegVal) {}

// commit streams the dirty pages to the redo log, publishes the commit
// record, applies the pages home, and truncates.
func (t *thread) commit() {
	if len(t.pageOrder) == 0 {
		return
	}
	dev := t.rt.reg.Dev
	for i, base := range t.pageOrder {
		slot := t.log + logBase + uint64(i)*slotSize
		dev.StoreNT(slot, base)
		dev.WriteWordsNT(slot+8, t.pages[base])
		t.stats.LoggedEntries++
		t.stats.LoggedBytes += PageSize
		t.rc.Emit(obs.KLogAppend, PageSize, base)
	}
	dev.StoreNT(t.log+logCount, uint64(len(t.pageOrder)))
	dev.Fence()
	dev.StoreNT(t.log+logState, 1)
	dev.Fence()
	for _, base := range t.pageOrder {
		dev.WriteWords(base, t.pages[base])
		dev.PersistRange(base, PageSize)
	}
	dev.Fence()
	dev.StoreNT(t.log+logState, 0)
	dev.Fence()
	for _, base := range t.pageOrder {
		delete(t.pages, base)
	}
	t.pageOrder = t.pageOrder[:0]
}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
