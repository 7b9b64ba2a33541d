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
type Runtime struct{ persist.Frame }

// New creates an NVThreads runtime. Its logs are page-aligned and padded
// so every log page is exclusively the log's (see logPages above).
func New() *Runtime {
	return &Runtime{persist.NewFrame("nvthreads", persist.Logs{Size: logPages * PageSize, Align: PageSize, Root: region.RootNVThreadsHead, Next: logNext})}
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	dev := rt.Reg.Dev
	t := &thread{rt: rt, pages: make(map[uint64][]uint64)}
	if _, err := rt.Frame.NewThread(&t.ThreadFrame, func(log uint64, _ int) error {
		dev.Store64(log+logState, 0)
		dev.Store64(log+logCount, 0)
		return nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// Recover replays committed-but-unapplied page logs (REDO replay is
// idempotent); uncommitted private pages died with the volatile state.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	buf := make([]uint64, pageWords)
	return rt.Frame.Recover(func(stats *persist.Pass, log uint64, audit *obs.ThreadAudit) error {
		return rt.replay(stats, log, audit, buf)
	}, nil)
}

func (rt *Runtime) replay(stats *persist.Pass, log uint64, audit *obs.ThreadAudit, buf []uint64) error {
	dev := rt.Reg.Dev
	if dev.Load64(log+logState) != 1 {
		return nil
	}
	n := int(dev.Load64(log + logCount))
	if n > maxPages {
		n = maxPages
	}
	for i := 0; i < n; i++ {
		slot := log + logBase + uint64(i)*slotSize
		page := dev.Load64(slot)
		if err := rt.CheckEntry(log, i, page, PageSize, PageSize); err != nil {
			return err
		}
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
	return nil
}

type thread struct {
	persist.ThreadFrame
	rt        *Runtime
	pages     map[uint64][]uint64 // page base -> private copy
	pageOrder []uint64
}

// Unlock commits the buffered pages when the outermost lock is released.
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
	t.rt.Reg.Dev.ReadWords(base, p) // copy-on-write fault
	t.pages[base] = p
	t.pageOrder = append(t.pageOrder, base)
	return p, base
}

func (t *thread) Store64(addr, val uint64) {
	if t.Depth == 0 {
		t.rt.Reg.Dev.Store64(addr, val)
		return
	}
	p, base := t.pageFor(addr, true)
	p[(addr-base)/8] = val
	t.Stats.Stores++
}

func (t *thread) Load64(addr uint64) uint64 {
	if t.Depth > 0 {
		if p, base := t.pageFor(addr, false); p != nil {
			return p[(addr-base)/8]
		}
	}
	return t.rt.Reg.Dev.Load64(addr)
}

// commit streams the dirty pages to the redo log, publishes the commit
// record, applies the pages home, and truncates.
func (t *thread) commit() {
	if len(t.pageOrder) == 0 {
		return
	}
	dev := t.rt.Reg.Dev
	for i, base := range t.pageOrder {
		slot := t.Log + logBase + uint64(i)*slotSize
		dev.StoreNT(slot, base)
		dev.WriteWordsNT(slot+8, t.pages[base])
		t.Append(PageSize, base)
	}
	dev.StoreNT(t.Log+logCount, uint64(len(t.pageOrder)))
	dev.Fence()
	dev.StoreNT(t.Log+logState, 1)
	dev.Fence()
	for _, base := range t.pageOrder {
		dev.WriteWords(base, t.pages[base])
		dev.PersistRange(base, PageSize)
	}
	dev.Fence()
	dev.StoreNT(t.Log+logState, 0)
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
