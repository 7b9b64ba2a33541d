// Package mnemosyne implements the Mnemosyne baseline (Volos et al.,
// ASPLOS 2011) as evaluated in the iDO paper: REDO-logged durable
// transactions with a speculative (TinySTM/TL2-style) implementation.
// FASEs are treated as transactions — lock operations never take the lock;
// they only delimit the transaction, so hand-over-hand traversals execute
// as one large transaction (§V-B). Commits serialize through a global
// version clock and per-stripe versioned write locks, which is the runtime
// synchronization the paper observes saturating at high thread counts.
//
// Durability follows Mnemosyne's raw-word-log design: at commit the write
// set is streamed to a per-thread NVM redo log with non-temporal stores
// and fenced, a commit record is published, the values are applied in
// place and written back, and the log is truncated. Recovery replays any
// log whose commit record is set but whose truncation never made it.
package mnemosyne

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

const (
	numStripes = 1 << 16 // versioned write-lock table
	// Per-thread redo log layout.
	logState = 0  // 1 = committed, replay on recovery
	logCount = 8  // number of entries
	logNext  = 16 // next thread log in the global list
	logBase  = 64 // entries: {addr, val} pairs
	maxWrite = 1024
	logSize  = logBase + maxWrite*16
)

// abortTx is the panic payload used to unwind an aborted transaction.
type abortTx struct{}

// Runtime is the Mnemosyne baseline runtime.
type Runtime struct {
	persist.Frame

	clock   atomic.Uint64
	stripes []atomic.Uint64 // version<<1 | locked
}

// New creates a Mnemosyne runtime.
func New() *Runtime {
	return &Runtime{
		Frame:   persist.NewFrame("mnemosyne", persist.Logs{Size: logSize, Align: nvm.LineSize, Root: region.RootMnemosyneHead, Next: logNext}),
		stripes: make([]atomic.Uint64, numStripes),
	}
}

func (rt *Runtime) stripe(addr uint64) *atomic.Uint64 {
	h := addr >> 3
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	return &rt.stripes[(h>>24)%numStripes]
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	dev := rt.Reg.Dev
	t := &thread{rt: rt, writes: make(map[uint64]uint64)}
	if _, err := rt.Frame.NewThread(&t.ThreadFrame, func(log uint64, _ int) error {
		dev.Store64(log+logState, 0)
		dev.Store64(log+logCount, 0)
		return nil
	}); err != nil {
		return nil, err
	}
	t.rng = uint64(t.ID()+1) * 0x9E3779B97F4A7C15
	return t, nil
}

// Recover replays any redo log whose commit record survived but whose
// in-place application may not have: REDO semantics make replay
// idempotent, so re-applying is always safe.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	return rt.Frame.Recover(rt.replay, nil)
}

func (rt *Runtime) replay(stats *persist.Pass, log uint64, audit *obs.ThreadAudit) error {
	dev := rt.Reg.Dev
	if dev.Load64(log+logState) != 1 {
		return nil
	}
	n := int(dev.Load64(log + logCount))
	if n > maxWrite {
		n = maxWrite
	}
	for i := 0; i < n; i++ {
		e := log + logBase + uint64(i)*16
		addr := dev.Load64(e)
		val := dev.Load64(e + 8)
		if err := rt.CheckEntry(log, i, addr, 8, 8); err != nil {
			return err
		}
		dev.Store64(addr, val)
		dev.CLWB(addr)
		stats.LogEntries++
	}
	dev.Fence()
	dev.StoreNT(log+logState, 0)
	dev.Fence()
	stats.RolledBack++ // replayed, in REDO terms
	audit.Action = obs.AuditReplayed
	audit.WordsRestored = n
	return nil
}

type readRec struct {
	s   *atomic.Uint64
	ver uint64
}

type thread struct {
	persist.ThreadFrame
	rt *Runtime

	rv         uint64
	reads      []readRec
	writes     map[uint64]uint64
	writeOrder []uint64

	rng uint64 // xorshift64 state for abort backoff, never zero
}

// Exec retries op until its transactions commit. op must confine its side
// effects to Thread stores, which the STM buffers.
func (t *thread) Exec(op func()) {
	window := backoffMinNS
	for {
		if t.try(op) {
			return
		}
		t.Stats.Aborts++
		t.backoff(window)
		window = min(2*window, backoffMaxNS)
	}
}

// Contention management, as in TinySTM: after an abort a thread waits a
// random time below a window that doubles with each consecutive abort of
// the same operation, then yields its P. An immediate retry livelocks
// once goroutines outnumber Ps: a committer descheduled while it holds
// stripe locks leaves every running thread aborting on them until the
// scheduler preempts it. The wait is pure CPU with no device event, and a
// single-threaded run never aborts, so its event sequence is unchanged.
const (
	backoffMinNS = 256
	backoffMaxNS = 64 << 10
)

func (t *thread) backoff(window int) {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	nvm.SpinWait(int(t.rng % uint64(window)))
	runtime.Gosched()
}

func (t *thread) try(op func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(abortTx); !is {
				panic(r)
			}
			t.resetTx()
			t.Depth = 0
			ok = false
		}
	}()
	op()
	return true
}

func (t *thread) resetTx() {
	t.reads = t.reads[:0]
	for k := range t.writes {
		delete(t.writes, k)
	}
	t.writeOrder = t.writeOrder[:0]
}

// Lock begins (or extends) the transaction; the lock itself is never
// acquired — Mnemosyne's transactional API replaces locking.
func (t *thread) Lock(*locks.Lock) { t.BeginDurable() }

// Unlock commits when the outermost FASE ends.
func (t *thread) Unlock(*locks.Lock) { t.EndDurable() }

func (t *thread) BeginDurable() {
	if t.Depth == 0 {
		t.rv = t.rt.clock.Load()
		t.resetTx()
	}
	t.Open()
}

func (t *thread) EndDurable() {
	if t.Outermost() {
		t.commit()
	}
	t.Close()
}

func (t *thread) abort() { panic(abortTx{}) }

// Load64 is a TL2 speculative read with pre/post stripe validation.
func (t *thread) Load64(addr uint64) uint64 {
	if t.Depth == 0 {
		return t.rt.Reg.Dev.Load64(addr)
	}
	if v, ok := t.writes[addr]; ok {
		return v
	}
	s := t.rt.stripe(addr)
	v1 := s.Load()
	if v1&1 != 0 || v1>>1 > t.rv {
		t.abort()
	}
	val := t.rt.Reg.Dev.Load64(addr)
	if s.Load() != v1 {
		t.abort()
	}
	t.reads = append(t.reads, readRec{s: s, ver: v1})
	return val
}

// Store64 buffers the write in the transaction's write set.
func (t *thread) Store64(addr, val uint64) {
	if t.Depth == 0 {
		t.rt.Reg.Dev.Store64(addr, val)
		return
	}
	if _, seen := t.writes[addr]; !seen {
		t.writeOrder = append(t.writeOrder, addr)
	}
	t.writes[addr] = val
	t.Stats.Stores++
}

// commit performs TL2 lock-validate-log-apply-release. On any conflict it
// unwinds with abortTx and Exec re-runs the operation.
func (t *thread) commit() {
	dev := t.rt.Reg.Dev
	if len(t.writeOrder) == 0 {
		// Read-only: every read was validated against rv at load time.
		t.resetTx()
		return
	}
	if len(t.writeOrder) > maxWrite {
		panic(fmt.Sprintf("mnemosyne: write set %d exceeds redo log capacity %d",
			len(t.writeOrder), maxWrite))
	}
	// Acquire stripe locks in address order (deduplicated).
	sort.Slice(t.writeOrder, func(i, j int) bool { return t.writeOrder[i] < t.writeOrder[j] })
	var lockedStripes []*atomic.Uint64
	locked := func(s *atomic.Uint64) bool {
		for _, x := range lockedStripes {
			if x == s {
				return true
			}
		}
		return false
	}
	release := func(restore bool) {
		for _, s := range lockedStripes {
			v := s.Load()
			if restore {
				s.Store(v &^ 1)
			}
		}
		lockedStripes = lockedStripes[:0]
	}
	for _, addr := range t.writeOrder {
		s := t.rt.stripe(addr)
		if locked(s) {
			continue
		}
		v := s.Load()
		if v&1 != 0 || v>>1 > t.rv || !s.CompareAndSwap(v, v|1) {
			release(true)
			t.abort()
		}
		lockedStripes = append(lockedStripes, s)
	}
	// Validate the read set.
	for _, r := range t.reads {
		cur := r.s.Load()
		if cur>>1 > t.rv || (cur&1 != 0 && !locked(r.s)) {
			release(true)
			t.abort()
		}
	}
	wv := t.rt.clock.Add(1)

	// Durability: stream the redo log with NT stores, fence, publish the
	// commit record, fence; then apply in place and truncate. With drain
	// sharing enabled each of the four fences may ride another thread's.
	for i, addr := range t.writeOrder {
		e := t.Log + logBase + uint64(i)*16
		dev.StoreNT(e, addr)
		dev.StoreNT(e+8, t.writes[addr])
	}
	dev.StoreNT(t.Log+logCount, uint64(len(t.writeOrder)))
	dev.Fence()
	dev.StoreNT(t.Log+logState, 1)
	dev.Fence()
	for _, addr := range t.writeOrder {
		dev.Store64(addr, t.writes[addr])
		dev.CLWB(addr)
	}
	dev.Fence()
	dev.StoreNT(t.Log+logState, 0)
	dev.Fence()
	for range t.writeOrder {
		t.Append(16, wv)
	}

	// Release stripes at the new version.
	for _, s := range lockedStripes {
		s.Store(wv << 1)
	}
	lockedStripes = nil
	t.resetTx()
}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
