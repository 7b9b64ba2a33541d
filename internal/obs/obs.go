// Package obs is the unified persist-event tracing and metrics layer.
//
// The iDO paper's argument is an event-count argument: iDO wins because it
// issues fewer write-backs and fences per FASE than undo/redo logging
// (§V, Fig. 6). The repo's cumulative counters (nvm.Stats,
// persist.RuntimeStats) show totals but not *where* in a FASE the flushes,
// fences, and log appends happen, or what recovery actually did after a
// crash. This package records that: typed, timestamped events from every
// layer — the NVM device (write-backs, fences, NT stores, evictions,
// crashes), the runtimes (log appends, region boundaries, FASEs, lock
// acquire/release through indirect holders), and recovery (phases and the
// per-thread audit) — merged into one timeline that exports as Chrome
// trace_event JSON (chrome://tracing, Perfetto).
//
// # Design
//
// A Tracer owns a set of bounded event buffers ("rings"):
//
//   - one ring per registered runtime thread (single-writer);
//   - a fixed array of device stripes, picked by a goroutine-affine stack
//     hash exactly like the device's striped stat counters, so device
//     events record without any shared lock (multi-writer, made safe by an
//     atomic claim of each slot index).
//
// Recording is lock-free and allocation-free: an event claims its slot
// with one atomic fetch-add and writes it in place. When a ring is full,
// further events increment a drop counter instead of wrapping — a dropped
// tail is honest, a torn or overwritten event is not — and every Emit
// unconditionally bumps an exact per-kind counter, so Count() matches the
// device's Stats even if the ring overflowed.
//
// # The disabled fast path
//
// Everything a producer holds is nil when tracing is off: the device keeps
// an atomic tracer pointer (one load + branch per persist operation), and
// runtime threads keep a *Ring whose methods are nil-receiver safe (one
// compare per protocol step). No allocation, no time syscall, no atomic
// write happens on the disabled path; TestTracerDisabledZeroAlloc and the
// PR 2 dispatch benchmarks hold this to ≤2% and 0 allocs/op.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Kind is the type of one traced event.
type Kind uint8

// Event kinds. Span kinds (flush, fence, NT store, region, FASE, recovery
// phase) carry a duration; the rest are instants.
const (
	// KFlush is one cache-line write-back (CLWB/CLFLUSH reaching the
	// memory controller). A = line address. Dur = observed latency.
	KFlush Kind = iota
	// KFence is one persist fence. Dur = observed stall.
	KFence
	// KNTStore is one non-temporal store. A = address.
	KNTStore
	// KEvict is a spontaneous cache eviction write-back. A = line.
	KEvict
	// KCrash is a device crash settling the persistence domain. A = mode.
	KCrash
	// KLogAppend is one runtime log record written. A = payload bytes,
	// B = a runtime-specific tag (site pc, entry kind, region ID).
	KLogAppend
	// KBoundary is an idempotent-region boundary commit: recovery_pc
	// published. A = region ID, B = logged output count.
	KBoundary
	// KRegion is the span of one completed idempotent region (between
	// consecutive boundaries). A = region ID, B = tracked stores.
	KRegion
	// KFASE is the span of one completed failure-atomic section.
	// A = log bytes written during the FASE.
	KFASE
	// KLockAcq is a FASE lock acquisition. A = indirect holder address.
	KLockAcq
	// KLockRel is a FASE lock release. A = indirect holder address.
	KLockRel
	// KRecovery is one recovery phase (scan, reacquire, resume, rollback,
	// truncate). A = a Phase* constant, B = items processed.
	KRecovery
	// KAlloc is one persistent-heap block allocation (header published
	// allocated). A = block address, B = block bytes including the header.
	KAlloc
	// KFree is one persistent-heap block free (header published free).
	// A = block address, B = block bytes including the header.
	KFree
	// KRefill is one carve: a run of size-class blocks cut from a
	// segment tail or a fresh segment. A = class block size, B = blocks
	// carved.
	KRefill
	// KNetReq is one served network request (parse → shard dispatch →
	// respond), emitted as a span by the owning shard pipeline.
	// A = request opcode, B = shard index.
	KNetReq
	// KNetBatch is one batched response write flushed back to a client
	// connection. A = bytes written, B = requests covered by the flush.
	KNetBatch
	// KNetFastGet is one GET served by the lock-free read fast lane —
	// no slot, no FASE, no fence. A = first key word, B = shard index.
	KNetFastGet

	nKinds
)

// Recovery phase identifiers (Event.A of a KRecovery event).
const (
	PhaseScan = iota + 1
	PhaseReacquire
	PhaseResume
	PhaseRollback
	PhaseTruncate
)

func (k Kind) String() string {
	switch k {
	case KFlush:
		return "flush"
	case KFence:
		return "fence"
	case KNTStore:
		return "nt-store"
	case KEvict:
		return "evict"
	case KCrash:
		return "crash"
	case KLogAppend:
		return "log-append"
	case KBoundary:
		return "boundary"
	case KRegion:
		return "region"
	case KFASE:
		return "fase"
	case KLockAcq:
		return "lock-acquire"
	case KLockRel:
		return "lock-release"
	case KRecovery:
		return "recovery"
	case KAlloc:
		return "alloc"
	case KFree:
		return "free"
	case KRefill:
		return "refill"
	case KNetReq:
		return "net-req"
	case KNetBatch:
		return "net-batch"
	case KNetFastGet:
		return "net-fastget"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NumKinds is the number of event kinds (for tests iterating counts).
const NumKinds = int(nKinds)

// Event is one recorded persist event. TS and Dur are nanoseconds on the
// tracer's monotonic clock; Tid identifies the recording ring.
type Event struct {
	TS   int64
	Dur  int64
	A, B uint64
	Kind Kind
	Tid  int32
}

// Config sizes a tracer's rings (in events; one event is 40 bytes).
type Config struct {
	// ThreadRingCap is the capacity of each registered thread ring.
	ThreadRingCap int
	// DeviceRingCap is the capacity of each of the device stripe rings.
	DeviceRingCap int
}

// DefaultConfig holds a FASE-timeline's worth of events per thread and a
// generous budget for device events (16 stripes × 32Ki events ≈ 20 MB).
func DefaultConfig() Config {
	return Config{ThreadRingCap: 1 << 14, DeviceRingCap: 1 << 15}
}

// nDevStripes is the number of device stripe rings. Power of two.
const nDevStripes = 16

// devTidBase offsets device stripe tids above registered thread tids.
const devTidBase = 1 << 10

// Tracer owns the event rings, exact per-kind counts, and the metric
// histograms for one tracing session. All methods are safe for concurrent
// use; the zero per-event cost path is a nil *Tracer / nil *Ring.
type Tracer struct {
	epoch time.Time
	cfg   Config

	dev [nDevStripes]*Ring

	hists [nHist]Histogram

	// rings is the atomically published registry of every ring, device
	// stripes first. Registration copies the slice and swings the pointer,
	// so snapshot readers iterate it lock-free; mu serializes writers only.
	mu    sync.Mutex
	rings atomic.Pointer[[]*Ring]
}

// New creates a tracer with all rings preallocated, so recording never
// allocates.
func New(cfg Config) *Tracer {
	if cfg.ThreadRingCap <= 0 {
		cfg.ThreadRingCap = DefaultConfig().ThreadRingCap
	}
	if cfg.DeviceRingCap <= 0 {
		cfg.DeviceRingCap = DefaultConfig().DeviceRingCap
	}
	tr := &Tracer{epoch: time.Now(), cfg: cfg}
	rings := make([]*Ring, 0, nDevStripes)
	for i := range tr.dev {
		r := &Ring{
			tr:    tr,
			tid:   int32(devTidBase + i),
			label: fmt.Sprintf("nvm-dev/%d", i),
		}
		r.rb.Store(newRingBuf(cfg.DeviceRingCap))
		tr.dev[i] = r
		rings = append(rings, r)
	}
	tr.rings.Store(&rings)
	return tr
}

// Clock returns nanoseconds since the tracer's epoch (monotonic). A nil
// tracer reads as 0.
func (tr *Tracer) Clock() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.epoch))
}

// ThreadRing registers and returns a new single-writer ring for one
// runtime thread. label names the timeline row in the exported trace
// (e.g. "ido/t3"). ThreadRing on a nil tracer returns a nil ring, whose
// methods are all safe no-ops — the disabled fast path.
func (tr *Tracer) ThreadRing(label string) *Ring {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	old := *tr.rings.Load()
	r := &Ring{
		tr:    tr,
		tid:   int32(len(old) - nDevStripes),
		label: label,
	}
	r.rb.Store(newRingBuf(tr.cfg.ThreadRingCap))
	next := make([]*Ring, len(old)+1)
	copy(next, old)
	next[len(old)] = r
	tr.rings.Store(&next)
	return r
}

// devRing picks this goroutine's device stripe from a stack-address hash,
// the same registration-free affinity trick the device's stat stripes use.
func (tr *Tracer) devRing() *Ring {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe))) * 0x9E3779B97F4A7C15
	return tr.dev[h>>(64-4)]
}

// DevEmit records an instant device event on this goroutine's stripe.
func (tr *Tracer) DevEmit(k Kind, a, b uint64) {
	tr.devRing().emit(k, a, b, tr.Clock(), 0)
}

// DevSpan records a device span that began at startTS (from Clock) and
// ends now, and feeds the flush/fence latency histograms.
func (tr *Tracer) DevSpan(k Kind, a, b uint64, startTS int64) {
	now := tr.Clock()
	dur := now - startTS
	tr.devRing().emit(k, a, b, startTS, dur)
	switch k {
	case KFlush:
		tr.Observe(HFlushNS, uint64(dur))
	case KFence:
		tr.Observe(HFenceNS, uint64(dur))
	}
}

// Count returns the exact number of k events recorded (including any that
// were dropped from a full ring). Lock-free: one bounded pass of atomic
// loads over the published ring registry, safe while producers emit.
func (tr *Tracer) Count(k Kind) uint64 {
	var n uint64
	for _, r := range *tr.rings.Load() {
		n += r.kcount[k].Load()
	}
	return n
}

// Dropped returns the number of events lost to full rings. The exported
// trace is complete if and only if this is zero; Count is exact either
// way.
func (tr *Tracer) Dropped() uint64 {
	var n uint64
	for _, r := range *tr.rings.Load() {
		n += r.dropped.Load()
	}
	return n
}

// Events returns every recorded event merged across rings in timestamp
// order. Safe to call while producers emit: each ring's write cursor is
// read once to bound the scan, and only slots whose publish word is set
// are copied out, so an event claimed but not yet fully written is
// skipped rather than read torn. When producers are quiescent the result
// is exactly everything recorded.
func (tr *Tracer) Events() []Event {
	var out []Event
	for _, r := range *tr.rings.Load() {
		out = r.rb.Load().collect(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Rotate swaps every ring's buffer for a fresh empty one and returns the
// events published in the replaced buffers, merged in timestamp order.
// This is the windowed-capture primitive: Rotate (discard) to open a
// window, run, Rotate again to collect exactly the window's events — on
// a long-lived process whose drop-newest rings filled long ago, rotation
// is what makes a live capture possible at all. Producers racing the swap
// finish their write into whichever buffer they claimed a slot in; a slot
// published into the old buffer after collection is missed from the
// returned window but still counted by Count. Cumulative counters
// (Count, Dropped, histograms) are unaffected.
func (tr *Tracer) Rotate() []Event {
	if tr == nil {
		return nil
	}
	var out []Event
	for _, r := range *tr.rings.Load() {
		old := r.rb.Swap(newRingBuf(len(r.rb.Load().buf)))
		out = old.collect(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// ringBuf is one generation of a ring's storage. seq[i] is the publish
// word for buf[i]: stored (release) only after the event is fully
// written, so a reader that observes seq[i] != 0 (acquire) reads a
// complete event. Swapping the whole generation out atomically is what
// lets Rotate reset a ring without a double-writer race on slot indices —
// an in-flight producer keeps writing into the generation it claimed
// a slot in.
type ringBuf struct {
	next atomic.Uint64
	buf  []Event
	seq  []atomic.Uint32
}

func newRingBuf(cap int) *ringBuf {
	return &ringBuf{buf: make([]Event, cap), seq: make([]atomic.Uint32, cap)}
}

// collect appends every published event to out. The write cursor is read
// once, bounding the scan even while producers keep claiming slots.
func (rb *ringBuf) collect(out []Event) []Event {
	n := rb.next.Load()
	if n > uint64(len(rb.buf)) {
		n = uint64(len(rb.buf))
	}
	for i := uint64(0); i < n; i++ {
		if rb.seq[i].Load() != 0 {
			out = append(out, rb.buf[i])
		}
	}
	return out
}

// Ring is one bounded event buffer. A thread ring has a single writer;
// device stripe rings are shared, which the atomic index claim makes safe.
// All methods are nil-receiver safe so a disabled tracer costs producers
// one pointer compare. The counters live on the Ring and survive buffer
// rotation; the event storage lives in the current ringBuf generation.
type Ring struct {
	tr      *Tracer
	tid     int32
	label   string
	dropped atomic.Uint64
	kcount  [nKinds]atomic.Uint64
	rb      atomic.Pointer[ringBuf]
}

func (r *Ring) emit(k Kind, a, b uint64, ts, dur int64) {
	r.kcount[k].Add(1)
	rb := r.rb.Load()
	i := rb.next.Add(1) - 1
	if i >= uint64(len(rb.buf)) {
		r.dropped.Add(1)
		return
	}
	rb.buf[i] = Event{TS: ts, Dur: dur, A: a, B: b, Kind: k, Tid: r.tid}
	rb.seq[i].Store(1)
}

// Emit records an instant event.
func (r *Ring) Emit(k Kind, a, b uint64) {
	if r == nil {
		return
	}
	r.emit(k, a, b, r.tr.Clock(), 0)
}

// Span records an event spanning [startTS, now). Obtain startTS from
// Clock at the start of the operation.
func (r *Ring) Span(k Kind, a, b uint64, startTS int64) {
	if r == nil {
		return
	}
	now := r.tr.Clock()
	r.emit(k, a, b, startTS, now-startTS)
}

// Clock returns the tracer clock, or 0 on a nil ring.
func (r *Ring) Clock() int64 {
	if r == nil {
		return 0
	}
	return r.tr.Clock()
}

// Observe feeds v into histogram h; nil-safe.
func (r *Ring) Observe(h HistKind, v uint64) {
	if r == nil {
		return
	}
	r.tr.Observe(h, v)
}
