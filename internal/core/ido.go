// Package core implements the iDO runtime (the paper's primary
// contribution): failure atomicity for lock-delineated FASEs via
// idempotent-region logging and recovery-by-resumption.
//
// Per-thread state lives in an iDO_Log in NVM (Fig. 3): a packed
// recovery_pc identifying the current idempotent region, a lock_array of
// indirect lock holder addresses, and the region's logged inputs — an
// append-only area of (register, value) boundary records over a base
// image (intRF) that only a rare compaction writes. Three rules shape the
// protocol (DESIGN.md argues each crash window):
//
//  1. Append-only records. A boundary appends its outputs behind the
//     pairs the FASE already logged, writes them back with the ending
//     region's dirty lines — fence — and publishes region ID, pair count
//     and base-image flag in one 8-byte non-temporal store of
//     recovery_pc. Nothing a published pc covers is ever overwritten, so
//     no store of a boundary waits for the previous pc to be durable.
//  2. Owed fences. The fence after a pc publish only orders the pc before
//     the new region's persistent stores, so the thread notes that it
//     owes one and pays at its next persistent store — or never, when
//     the next boundary's fence comes first. A published FASE's nested
//     Lock records its holder the same way: written back, fenced by
//     whatever comes next.
//  3. Nothing to recover before the first store. A FASE that has not
//     written persistent memory is dropped by a crash as if it had never
//     started, so until its first store its boundaries only update a
//     volatile register mirror, its lock records and inner slot clears
//     are written back unfenced, and an ending that comes first costs no
//     fence and no pc store. The first store publishes: one record of
//     every register logged so far, one fence, the open region's pc.
//
// Recovery (§III-C) re-acquires each crashed thread's locks, rebuilds its
// register file (base image if flagged, then the pairs in log order),
// enters the interrupted region (a registered resume closure standing in
// for the compiler's recovery_pc), and runs forward to the FASE's end.
//
// Crash-ordering invariants maintained by this implementation:
//
//   - recovery_pc != 0  ⇔  the thread's FASE has issued a persistent
//     store and must be resumed. (A FASE that stores before its first
//     boundary has no region to resume at until that boundary publishes.)
//   - Every lock record and slot clear of a FASE's prefix is fenced before
//     its first pc publish, the FASE's data before recovery_pc is
//     cleared, and the clear before the last slot is; so a nonzero
//     recovery_pc always finds exactly its locks.
//   - No holder address is live in two logs that both resume. A published
//     FASE's inner release fences its slot clear before the mutex changes
//     hands. An unpublished one's, and every final release, do not: the
//     clear may be in flight when the next owner records the lock, but
//     only under this log's durable recovery_pc == 0, where Recover
//     scrubs and never re-acquires.
//   - Resumption may re-execute the lock acquire that ends a region or
//     the release that begins one; Lock and Unlock detect this from the
//     lock_array mirror and skip the duplicate operation (the paper's
//     instrumented lock library behaves the same way — this is also what
//     makes the "robbed lock" window of §III-B benign).
package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/lineset"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// iDO_Log layout (byte offsets within the 64-aligned per-thread log).
// The first cache line holds the list link, thread id, recovery_pc, the
// lock-slot bitmap and lock slots 0–3, so a FASE of up to four locks
// records or clears a holder with one CLWB. The intRF base image follows,
// then the record area, then lock slots 4–15.
const (
	logNext     = 0  // next log in the global list
	logThreadID = 8  // registering thread's id
	logPC       = 16 // packed recovery_pc (0 => not in a FASE)
	logLockBits = 24 // live-slot bitmask for the lock array
	logSlots    = 32 // lock_array slots 0..hdrSlots-1
	hdrSlots    = 4
	rfBase      = 64 // intRF: MaxOutputs register slots
	numSlots    = 16 // lock_array capacity
	recPairs    = 64 // record area capacity in (register, value) pairs
)

// pcBase is the recovery_pc bit that marks the intRF base image live.
const pcBase = 1 << 56

// pcPack packs a region ID, the number of record pairs the FASE has
// logged so far, and the base flag (0 or pcBase) into one 8-byte word,
// so a single atomic NVM write switches region and record set together
// (region IDs must fit 48 bits). Pairs beyond the count are invisible to
// recovery: a boundary can write them, and a crash or a spontaneous
// write-back persist any part of them, without tearing what the current
// recovery_pc describes.
func pcPack(regionID uint64, pairs int, base uint64) uint64 {
	return regionID | uint64(pairs)<<48 | base
}

func pcUnpack(w uint64) (regionID uint64, pairs int, base uint64) {
	return w & (1<<48 - 1), int(w >> 48 & 0xFF), w & pcBase
}

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
	cfg Config
	reg *region.Region
	lm  *locks.Manager

	rfStride uint64 // 8 when coalescing, 64 when not
	recBase  uint64 // offset of the record area

	mu      sync.Mutex
	threads []*Thread
	nextID  int
}

// New creates an iDO runtime with the given configuration.
func New(cfg Config) *Runtime {
	rt := &Runtime{cfg: cfg, rfStride: 8}
	if !cfg.Coalesce {
		rt.rfStride = nvm.LineSize
	}
	rt.recBase = rfBase + persist.MaxOutputs*rt.rfStride
	return rt
}

// slotOff returns the offset of lock_array slot i (numSlots: the log's end).
func (rt *Runtime) slotOff(i int) uint64 {
	if i < hdrSlots {
		return logSlots + uint64(i)*8
	}
	return rt.recBase + recPairs*16 + uint64(i-hdrSlots)*8
}

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "ido" }

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, lm *locks.Manager) error {
	rt.reg, rt.lm = reg, lm
	return nil
}

// NewThread registers a worker: it allocates and persists an iDO_Log and
// links it onto the global log list anchored at the region's iDO_head
// root (Fig. 3).
func (rt *Runtime) NewThread() (persist.Thread, error) {
	rt.mu.Lock()
	id := rt.nextID
	rt.nextID++
	rt.mu.Unlock()

	logSize := rt.slotOff(numSlots)
	raw, err := rt.reg.Alloc.Alloc(int(logSize) + nvm.LineSize)
	if err != nil {
		return nil, fmt.Errorf("ido: allocating log: %w", err)
	}
	addr := (raw + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	dev := rt.reg.Dev
	dev.Store64(addr+logThreadID, uint64(id))
	dev.Store64(addr+logPC, 0)
	dev.Store64(addr+logLockBits, 0)

	// Deferred unlock: the device calls below panic with nvm.CrashSignal
	// under armed injection, and the mutex must not survive the unwind.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	head := rt.reg.Root(region.RootIDOHead)
	dev.Store64(addr+logNext, head)
	dev.PersistRange(addr, logSize)
	dev.Fence()
	rt.reg.SetRoot(region.RootIDOHead, addr) // fenced internally
	t := &Thread{rt: rt, id: id, log: addr}
	t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("ido/t%d", id))
	rt.threads = append(rt.threads, t)
	return t, nil
}

// Thread is a worker's iDO handle. It must be used from one goroutine.
type Thread struct {
	rt  *Runtime
	id  int
	log uint64

	lockDepth    int
	durableDepth int
	slots        [numSlots]uint64 // volatile mirror of the lock_array
	bits         uint64           // volatile mirror of logLockBits
	recovering   bool             // set on recovery threads

	dirty      lineset.Set // heap lines dirtied in the current region
	outScratch [persist.MaxOutputs]persist.RegVal

	// Volatile mirror of what the published recovery_pc describes: pairs
	// logged, base flag, and the register file recovery would rebuild from
	// them (what compaction writes into intRF).
	pairs int
	base  uint64 // 0, or pcBase once this FASE compacted
	rf    [persist.MaxOutputs]uint64
	// pend: write-backs or a pc publish are in flight, and a fence is owed
	// before this thread's next persistent store (rule 2).
	pend bool
	// pub: this FASE has published a recovery_pc (rule 3). Until then
	// boundaries only update rf and logged, the mask of registers they wrote.
	pub    bool
	logged uint16

	storesInRegion int
	inRegion       bool

	// rc is this thread's event ring; nil when tracing is off (every
	// method on a nil *obs.Ring is a one-compare no-op).
	rc           *obs.Ring
	curRegion    uint64 // region ID of the open region: trace labels, compaction's republish
	regionT0     int64  // tracer clock at the open of the current region
	faseT0       int64  // tracer clock at FASE entry
	faseLogBytes uint64 // log payload written during the current FASE

	stats persist.RuntimeStats
}

var _ persist.Thread = (*Thread)(nil)

// ID implements persist.Thread.
func (t *Thread) ID() int { return t.id }

// Exec implements persist.Thread; iDO never re-executes speculatively.
func (t *Thread) Exec(op func()) { op() }

func (t *Thread) inFASE() bool { return t.lockDepth > 0 || t.durableDepth > 0 }

// settle pays the owed fence, if there is one.
func (t *Thread) settle() {
	if t.pend {
		t.rt.reg.Dev.Fence()
		t.pend = false
	}
}

// Store64 performs a persistent store, after the fence the last pc
// publish or lock record left owed. Inside a FASE the dirtied line is
// tracked so the enclosing region's boundary can write it back (§III-A:
// "writes-back of variables accessed via pointers are tracked at run time
// and then written back at the end of the region"). No per-store log is
// written — that is the point of iDO.
func (t *Thread) Store64(addr, val uint64) {
	fase := t.inFASE()
	if fase && !t.pub && t.curRegion != 0 {
		t.publish()
	}
	t.settle()
	t.rt.reg.Dev.Store64(addr, val)
	if fase {
		t.dirty.Add(addr &^ (nvm.LineSize - 1))
		t.storesInRegion++
		t.stats.Stores++
	}
}

// Load64 reads persistent data.
func (t *Thread) Load64(addr uint64) uint64 { return t.rt.reg.Dev.Load64(addr) }

// closeRegion accounts for the region that just ended.
func (t *Thread) closeRegion() {
	if !t.inRegion {
		return
	}
	t.stats.StoresPerRegion[min(t.storesInRegion, persist.HistStores-1)]++
	t.stats.Regions++
	if t.rc != nil {
		now := t.rc.Clock()
		t.rc.Span(obs.KRegion, t.curRegion, uint64(t.storesInRegion), t.regionT0)
		t.rc.Observe(obs.HRegionNS, uint64(now-t.regionT0))
		t.rc.Observe(obs.HRegionStores, uint64(t.storesInRegion))
	}
	t.inRegion = false
	t.storesInRegion = 0
}

// persistDirty writes back every line the ending region dirtied in one
// bulk call and orders them, with whatever else is owed a fence, by one
// persist fence (§III-A step 1); nothing dirty and nothing owed, no fence.
// With drain sharing enabled the fence may ride another thread's drain.
func (t *Thread) persistDirty() {
	lines := t.dirty.Lines()
	t.rt.reg.Dev.FlushLines(lines)
	t.pend = t.pend || len(lines) > 0
	t.settle()
	t.dirty.Reset()
}

// OutputScratch implements persist.OutputScratcher: callers assemble
// each Boundary output set in this thread-owned buffer, so spreading it
// into the variadic Boundary never heap-allocates. Boundary only reads
// the slice (it copies into the log and t.rf), so reuse across calls is
// safe.
func (t *Thread) OutputScratch() []persist.RegVal { return t.outScratch[:0] }

// Boundary ends the current idempotent region and opens the one
// identified by regionID. Before the FASE's first persistent store it
// only notes the ending region's OutputSet in the volatile mirror (rule
// 3); after it, it appends the OutputSet to the FASE's record area:
// §III-A's three-step protocol, one fence paid here and one owed.
func (t *Thread) Boundary(regionID uint64, outputs ...persist.RegVal) {
	n := len(outputs)
	if n > persist.MaxOutputs {
		panic(fmt.Sprintf("ido: region %#x logs %d outputs (max %d)",
			regionID, n, persist.MaxOutputs))
	}
	if regionID == 0 || regionID >= 1<<48 {
		panic(fmt.Sprintf("ido: region ID %#x out of range", regionID))
	}
	t.closeRegion()
	if t.pub && t.pairs+n > recPairs {
		t.compact()
	}
	for _, o := range outputs {
		if o.Reg < 0 || o.Reg >= persist.MaxOutputs {
			panic(fmt.Sprintf("ido: register slot %d out of range", o.Reg))
		}
		t.rf[o.Reg] = o.Val
		t.logged |= 1 << uint(o.Reg)
	}
	t.curRegion = regionID
	if t.pub {
		t.record(outputs)
	} else if t.dirty.Len() > 0 {
		t.publish() // the FASE stored before its first boundary
	}

	t.stats.OutputsPerRegion[n]++
	if t.rc != nil {
		t.rc.Emit(obs.KBoundary, regionID, uint64(n))
		t.rc.Observe(obs.HOutputsPerRegion, uint64(n))
		t.regionT0 = t.rc.Clock()
	}
	t.inRegion = true
	// Step 3 is the caller executing the region's code.
}

// record appends pairs behind the ones the current recovery_pc covers and
// publishes curRegion over them. Pairs a published pc covers are never
// rewritten, so the still-current region's live-ins cannot be clobbered.
func (t *Thread) record(pairs []persist.RegVal) {
	dev := t.rt.reg.Dev
	n := len(pairs)
	// Step 1: the record — coalesced, pairs pack four to a cache line, so
	// up to eight registers cost two or three contiguous write-backs
	// (§IV-B) — plus any heap lines the ending region dirtied; fence.
	rec := t.log + t.rt.recBase + uint64(t.pairs)*16
	for i, o := range pairs {
		pa := rec + uint64(i)*16
		dev.Store64(pa, uint64(o.Reg))
		dev.Store64(pa+8, o.Val)
	}
	if t.rt.cfg.Coalesce {
		dev.PersistRange(rec, uint64(n)*16)
	} else {
		for a := rec; a < rec+uint64(n)*16; a += 8 {
			dev.CLWB(a)
		}
	}
	t.pend = t.pend || n > 0
	t.persistDirty()

	// Step 2: publish the new recovery_pc; the pair count rides in the
	// packed word, so region and record set switch atomically and from
	// here on a crash resumes at curRegion's entry. The publish is a
	// non-temporal store: a cached store plus write-back would let the
	// crash adversary decide whether the pc reached the persistence
	// domain — for a FASE's first publish, between "FASE never started"
	// and "FASE resumes" — breaking the adversary-independence of recovery
	// (§III-C) that the chaos harness's persist-all oracle checks exactly.
	// The fence ordering it before the new region's stores is owed.
	t.pairs += n
	dev.StoreNT(t.log+logPC, pcPack(t.curRegion, t.pairs, t.base))
	t.pend = true

	t.stats.LoggedEntries++
	logBytes := uint64(n)*8 + 8
	t.stats.LoggedBytes += logBytes
	t.faseLogBytes += logBytes
}

// publish makes the FASE resumable just before its first persistent
// store (rule 3): one record carries every register the prefix
// boundaries logged, last value each, and its fence — unconditional — is
// also the fence of every lock record and slot clear so far. The open
// region is published mid-flight; that is sound because all it has done
// is load and lock, which resumption repeats (re-acquired locks first)
// or skips via the slot mirror.
func (t *Thread) publish() {
	var pairs [persist.MaxOutputs]persist.RegVal
	n := 0
	for m := t.logged; m != 0; m &= m - 1 {
		r := bits.TrailingZeros16(m)
		pairs[n] = persist.RV(r, t.rf[r])
		n++
	}
	t.pend = true
	t.record(pairs[:n])
	t.pub = true
}

// compact empties the record area when the next boundary would overflow
// it: the register file the current recovery_pc describes goes into intRF
// in place, and the current region is republished with no pairs over that
// base. Replaying the old pairs over a partly written intRF yields the
// same register file (a pair decides its register; one without a pair is
// rewritten to the value it had), so a crash in here resumes the same
// region with the same inputs. The pc must be durable before intRF changes
// under it, and the new pc before fresh pairs overwrite the old.
func (t *Thread) compact() {
	dev := t.rt.reg.Dev
	t.settle()
	for r, v := range t.rf {
		dev.Store64(t.log+rfBase+uint64(r)*t.rt.rfStride, v)
	}
	dev.PersistRange(t.log+rfBase, persist.MaxOutputs*t.rt.rfStride)
	dev.Fence()
	t.pairs, t.base = 0, pcBase
	dev.StoreNT(t.log+logPC, pcPack(t.curRegion, 0, pcBase))
	dev.Fence()
}

// endFASE makes the FASE's effects durable and then clears recovery_pc
// (dropping the pairs and the base image with it), each under its own
// fence: data before pc = 0, pc = 0 before the caller hands the mutex
// over. The clear is a single NT store for the same reason the publish is.
// A FASE that never stored never published: its pc is 0 already and there
// is nothing to write back, so it ends without a device event.
func (t *Thread) endFASE() {
	dev := t.rt.reg.Dev
	t.closeRegion()
	t.persistDirty()
	if t.pub {
		dev.StoreNT(t.log+logPC, 0)
		dev.Fence()
	}
	t.pairs, t.base, t.rf = 0, 0, [persist.MaxOutputs]uint64{}
	t.pub, t.logged, t.curRegion = false, 0, 0
	t.stats.FASEs++
	if t.rc != nil {
		t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
		t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
	}
}

// slotOf probes only the slots the bits mask marks live (slots[i] != 0
// exactly when bit i is set), instead of scanning all numSlots entries.
func (t *Thread) slotOf(holder uint64) int {
	for m := t.bits; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if t.slots[i] == holder {
			return i
		}
	}
	return -1
}

// freeSlot returns the lowest empty lock_array slot, or -1 when full.
func (t *Thread) freeSlot() int {
	if i := bits.TrailingZeros64(^t.bits); i < numSlots {
		return i
	}
	return -1
}

// setSlot updates lock_array slot i and the bitmap, in the mirror and in
// the log, and writes the log words back: one CLWB for slots 0–3, which
// share the bitmap's line.
func (t *Thread) setSlot(i int, holder, bits uint64) {
	t.slots[i], t.bits = holder, bits
	dev := t.rt.reg.Dev
	sa := t.log + t.rt.slotOff(i)
	dev.Store64(sa, holder)
	dev.Store64(t.log+logLockBits, t.bits)
	if i >= hdrSlots {
		dev.CLWB(sa)
	}
	dev.CLWB(t.log + logLockBits)
}

// Lock acquires l and records its indirect holder in the lock_array
// (§III-B). Before the FASE publishes, the record waits for publish's
// fence, which is all it has to precede; after, it is a store of the open
// region and its own fence is owed. When resumption re-executes an
// acquire the thread already performed (the lock is already in the
// mirror), the call is a no-op.
func (t *Thread) Lock(l *locks.Lock) {
	if t.slotOf(l.Holder()) >= 0 {
		if !t.recovering {
			panic("ido: recursive Lock outside recovery")
		}
		return // resumption re-executing an already-held acquire
	}
	l.Acquire()
	slot := t.freeSlot()
	if slot < 0 {
		panic("ido: lock_array overflow (more than 16 locks held)")
	}
	t.settle() // a published FASE's nested acquire is a store of the open region
	t.setSlot(slot, l.Holder(), t.bits|1<<uint(slot))
	t.pend = t.pub // an unpublished one's record waits for publish's fence
	t.openFASE()
	t.rc.Emit(obs.KLockAcq, l.Holder(), 0)
	t.lockDepth++
}

// Unlock releases l. An inner release (other locks remain held) clears
// the lock_array entry and, once the FASE has published, fences the clear
// before the mutex changes hands; before that the clear sits under a
// durable recovery_pc == 0 and publish's fence orders it ahead of any pc
// that could make it matter. The FASE's final release first ends the FASE
// and only then clears the slot and releases — so recovery_pc != 0 always
// finds its locks recorded, and a slot clear still in flight sits under a
// durable recovery_pc == 0.
//
// When resumption re-executes a release the crashed thread had already
// completed (the lock is absent from the mirror), the call is a no-op.
func (t *Thread) Unlock(l *locks.Lock) {
	slot := t.slotOf(l.Holder())
	if slot < 0 {
		if t.recovering {
			return // release already completed before the crash
		}
		panic("ido: unlocking a lock this thread does not hold")
	}
	last := t.lockDepth == 1 && t.durableDepth == 0
	if last {
		t.endFASE()
	} else {
		t.settle()
	}
	t.setSlot(slot, 0, t.bits&^(1<<uint(slot)))
	if !last && t.pub {
		t.rt.reg.Dev.Fence()
	}
	t.rc.Emit(obs.KLockRel, l.Holder(), 0)
	t.lockDepth--
	l.Release()
}

// BeginDurable opens a programmer-delineated FASE (§II-B). The caller
// must issue a Boundary immediately after, exactly as the compiler
// inserts one after each lock acquire.
func (t *Thread) BeginDurable() {
	t.openFASE()
	t.durableDepth++
}

// openFASE starts the trace clock of a FASE at its outermost entry.
func (t *Thread) openFASE() {
	if t.rc != nil && !t.inFASE() {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
}

// EndDurable closes a programmer-delineated FASE, persisting its effects
// and clearing recovery_pc.
func (t *Thread) EndDurable() {
	if t.durableDepth == 0 {
		panic("ido: EndDurable without BeginDurable")
	}
	if t.durableDepth == 1 && t.lockDepth == 0 {
		t.endFASE()
	}
	t.durableDepth--
}

// Stats implements persist.Runtime. Call only while worker threads are
// quiescent.
func (rt *Runtime) Stats() persist.RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out persist.RuntimeStats
	for _, t := range rt.threads {
		out.Add(&t.stats)
	}
	return out
}

// Recover implements §III-C: walk the persistent log list, spawn a
// recovery thread per interrupted log, re-acquire locks, barrier, restore
// each thread's register file, and resume each interrupted region forward
// to the end of its FASE. Logs with recovery_pc == 0 and live lock slots
// (the thread was in a FASE's read-only prefix, or in the benign
// robbed-lock window between mutex acquisition and the slot's record)
// are scrubbed.
func (rt *Runtime) Recover(rr *persist.ResumeRegistry) (persist.RecoveryStats, error) {
	start := time.Now()
	dev := rt.reg.Dev
	attempt := nvm.EnterRecovery()
	defer nvm.ExitRecovery()
	// With a recovery-scoped crash budget armed, run the single-goroutine
	// restore path: goroutine interleaving would make "the Nth device
	// event of recovery" a different event on every run, and the chaos
	// harness needs schedules to replay bit-for-bit. The serial path
	// preserves the §III-C barrier by finishing every restore/re-acquire
	// before the first resume.
	serial := nvm.RecoveryCrashArmed()
	var stats persist.RecoveryStats
	stats.Attempt = attempt
	stats.Audit = &obs.RecoveryAudit{Runtime: rt.Name(), Attempt: attempt}
	rc := dev.Tracer().ThreadRing("ido/recover")
	scanT0 := rc.Clock()

	type pending struct {
		t        *Thread
		pc, bits uint64 // the log's packed recovery_pc and lock bitmap
		ai       int    // index into stats.Audit.Threads
		rf       []uint64
		locks    []uint64
		acquired int // locks actually re-acquired (slot order)
		err      error
	}
	var work []*pending

	// The restore/re-acquire phase of each interrupted thread overlaps
	// the serial log walk: as soon as a log entry is decoded, a goroutine
	// reads that thread's lock slots and register file and re-acquires
	// its locks while the walk moves on to the next entry. The acq group
	// is the §III-C barrier — every lock re-acquired before any thread
	// resumes — and the gate additionally holds resumption until the walk
	// has seen every log, preserving the all-threads-recovered-together
	// contract. Each lock was held by at most one crashed thread, so the
	// acquisitions cannot deadlock.
	var acq, done sync.WaitGroup
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	var abort atomic.Bool

	// A crash injected while this frame is driving the walk (or the
	// serial restore) must not strand launched goroutines: they block on
	// <-gate after their acq phase, and a panic that unwinds past this
	// frame would leak them — and the locks they re-acquired — forever.
	// Flag the abort, open the gate so they drain down the release path,
	// and re-raise.
	defer func() {
		if r := recover(); r != nil {
			abort.Store(true)
			openGate()
			done.Wait()
			panic(r)
		}
	}()

	// restore reads one interrupted thread's lock slots and register file
	// from its log and re-acquires its locks. Panics propagate to the
	// caller (each call path wraps it per its own death semantics).
	restore := func(w *pending) {
		t, p := w.t, w.t.log
		t.slots = rt.loadSlots(p, w.bits)
		for i, h := range t.slots {
			if h != 0 {
				t.bits |= 1 << uint(i)
				w.locks = append(w.locks, h)
			}
		}
		// Rebuild the register file the pc describes; the thread carries
		// on appending behind the pairs it covers.
		t.curRegion, t.pairs, t.base = pcUnpack(w.pc)
		t.pub = true
		w.rf, _ = rt.loadRF(p, t.pairs, t.base)
		copy(t.rf[:], w.rf)
		t.lockDepth = len(w.locks)
		if t.lockDepth == 0 {
			t.durableDepth = 1 // a programmer-delineated FASE was active
		}
		t.inRegion = true
		for s := 0; s < numSlots; s++ {
			if t.slots[s] != 0 {
				rt.lm.ByHolder(t.slots[s]).Acquire()
				w.acquired++
				t.rc.Emit(obs.KLockAcq, t.slots[s], 0)
			}
		}
	}
	// release drops the locks a failed/aborted thread actually grabbed so
	// the manager is not left poisoned for the caller's next attempt.
	// Only the first w.acquired held slots were locked — a panic can land
	// after t.slots is filled but before (or mid) the acquisition loop,
	// and releasing a never-acquired lock would be a fatal
	// unlock-of-unlocked-mutex.
	release := func(w *pending) {
		rel := w.acquired
		for s := 0; s < numSlots && rel > 0; s++ {
			if w.t.slots[s] != 0 {
				rt.lm.ByHolder(w.t.slots[s]).Release()
				rel--
			}
		}
	}
	resume := func(w *pending) {
		fn, _ := rr.Lookup(w.t.curRegion)
		fn(w.t, w.rf)
	}
	launch := func(w *pending) {
		defer done.Done()
		func() {
			defer acq.Done()
			defer func() {
				if r := recover(); r != nil {
					w.err = fmt.Errorf("ido: restore of log %#x panicked: %v", w.t.log, r)
				}
			}()
			restore(w)
		}()
		<-gate
		if abort.Load() || w.err != nil {
			// The walk failed (or this restore did): nothing resumes.
			release(w)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				w.err = fmt.Errorf("ido: resume of region %#x panicked: %v", w.t.curRegion, r)
			}
		}()
		resume(w)
	}

	var walkErr error
	for p := rt.reg.Root(region.RootIDOHead); p != 0; p = dev.Load64(p + logNext) {
		stats.Threads++
		stats.LogEntries++
		pcWord := dev.Load64(p + logPC)
		regionID, n, base := pcUnpack(pcWord)
		bits := dev.Load64(p + logLockBits)

		t := &Thread{rt: rt, id: int(dev.Load64(p + logThreadID)), log: p, recovering: true}
		t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("ido/t%d-rec", t.id))
		audit := obs.ThreadAudit{ThreadID: t.id, LogAddr: p, Action: obs.AuditIdle, RecoveryPC: pcWord}
		rt.mu.Lock()
		rt.threads = append(rt.threads, t)
		if t.id >= rt.nextID {
			rt.nextID = t.id + 1
		}
		rt.mu.Unlock()

		if regionID == 0 {
			// Nothing stored, nothing to resume. Scrub any recorded slots.
			if bits != 0 {
				for i := 0; i < numSlots; i++ {
					dev.Store64(p+rt.slotOff(i), 0)
				}
				dev.Store64(p+logLockBits, 0)
				dev.PersistRange(p+rt.slotOff(hdrSlots), (numSlots-hdrSlots)*8)
				dev.CLWB(p + logLockBits)
				dev.Fence()
				audit.Action = obs.AuditScrubbed
			}
			stats.Audit.Add(audit)
			continue
		}

		if _, ok := rr.Lookup(regionID); !ok {
			walkErr = fmt.Errorf("ido: no resume entry registered for region %#x (thread %d)", regionID, t.id)
			stats.Audit.Add(audit)
			break
		}
		audit.Action = obs.AuditResumed
		audit.RegionID = regionID
		audit.WordsRestored = n + int(base/pcBase)*persist.MaxOutputs // pairs, over the base image if live
		stats.Audit.Add(audit)
		w := &pending{t: t, pc: pcWord, bits: bits, ai: len(stats.Audit.Threads) - 1}
		work = append(work, w)
		if !serial {
			acq.Add(1)
			done.Add(1)
			go launch(w)
		}
	}
	rc.Span(obs.KRecovery, obs.PhaseScan, stats.LogEntries, scanT0)

	// guard runs one step of the deterministic serial path (restore every
	// thread, then resume every thread, here, in walk order). An injected
	// CrashSignal propagates — the crash kills recovery mid-flight and the
	// harness settles and re-recovers; another panic is the step's error.
	guard := func(label string, w *pending, step func(*pending)) bool {
		defer func() {
			if r := recover(); r != nil {
				if _, crash := r.(nvm.CrashSignal); crash {
					panic(r)
				}
				w.err = fmt.Errorf("ido: %s panicked: %v", label, r)
			}
		}()
		step(w)
		return w.err == nil
	}
	firstErr := walkErr
	if !serial {
		acq.Wait()
	} else if walkErr == nil {
		for _, w := range work {
			if !guard(fmt.Sprintf("restore of log %#x", w.t.log), w, restore) {
				firstErr = w.err
				break
			}
		}
	}
	// Fold what the restores found into the audit, in walk order: the
	// slice is stable once the walk has finished, the locks final past the
	// barrier. The re-acquire span starts at scanT0: restores overlap the walk.
	var locksTotal uint64
	for _, w := range work {
		stats.Audit.Threads[w.ai].Locks = w.locks
		locksTotal += uint64(len(w.locks))
	}
	rc.Span(obs.KRecovery, obs.PhaseReacquire, locksTotal, scanT0)
	resumeT0 := rc.Clock()
	switch {
	case !serial:
		if walkErr != nil {
			abort.Store(true) // launched threads release instead of resuming
		}
		openGate()
		done.Wait()
		for _, w := range work {
			if firstErr == nil {
				firstErr = w.err
			}
		}
	case firstErr != nil:
		for _, w := range work {
			release(w)
		}
	default:
		for _, w := range work {
			if !guard(fmt.Sprintf("resume of region %#x", w.t.curRegion), w, resume) {
				firstErr = w.err
				break
			}
		}
	}
	if firstErr != nil {
		return stats, firstErr
	}
	rc.Span(obs.KRecovery, obs.PhaseResume, uint64(len(work)), resumeT0)
	stats.Resumed = len(work)
	stats.Elapsed = time.Since(start)
	return stats, nil
}

var _ persist.Runtime = (*Runtime)(nil)

// loadSlots reads the lock_array slots the bitmap marks live (0 for the
// rest) from the log at p.
func (rt *Runtime) loadSlots(p, bits uint64) (slots [numSlots]uint64) {
	for i := range slots {
		if bits&(1<<uint(i)) != 0 {
			slots[i] = rt.reg.Dev.Load64(p + rt.slotOff(i))
		}
	}
	return slots
}

// loadRF decodes what a recovery_pc with the given pair count and base
// flag covers in the log at p: the pairs in log order, and the register
// file they replay to (the base image if live, else zeros, under them).
func (rt *Runtime) loadRF(p uint64, n int, base uint64) (rf []uint64, pairs []persist.RegVal) {
	dev := rt.reg.Dev
	rf = make([]uint64, persist.MaxOutputs)
	if base != 0 {
		for i := range rf {
			rf[i] = dev.Load64(p + rfBase + uint64(i)*rt.rfStride)
		}
	}
	for i := 0; i < n && i < recPairs; i++ {
		pa := p + rt.recBase + uint64(i)*16
		reg, val := dev.Load64(pa), dev.Load64(pa+8)
		if reg < persist.MaxOutputs {
			rf[reg] = val
			pairs = append(pairs, persist.RegVal{Reg: int(reg), Val: val})
		}
	}
	return rf, pairs
}

// LogEntryInfo is a read-only view of one per-thread iDO log, for
// post-mortem inspection (cmd/idolog).
type LogEntryInfo struct {
	LogAddr   uint64
	ThreadID  int
	RegionID  uint64           // 0 when the thread was not mid-FASE
	Pairs     []persist.RegVal // boundary records the pc covers, in log order
	BaseValid bool             // the pc's base-image flag: a compaction happened
	RF        []uint64         // register file recovery would hand the resume entry; nil when idle
	Locks     []uint64         // holder addresses recorded in the lock array
}

// InspectLogs walks a region's iDO log list without mutating anything.
// It uses the default log layout (the one New(DefaultConfig()) produces).
func InspectLogs(reg *region.Region) []LogEntryInfo {
	rt := New(DefaultConfig())
	rt.reg = reg
	dev := reg.Dev
	var out []LogEntryInfo
	for p := reg.Root(region.RootIDOHead); p != 0; p = dev.Load64(p + logNext) {
		regionID, n, base := pcUnpack(dev.Load64(p + logPC))
		e := LogEntryInfo{LogAddr: p, ThreadID: int(dev.Load64(p + logThreadID)), RegionID: regionID, BaseValid: base != 0}
		if regionID != 0 {
			e.RF, e.Pairs = rt.loadRF(p, n, base)
		}
		for _, h := range rt.loadSlots(p, dev.Load64(p+logLockBits)) {
			if h != 0 {
				e.Locks = append(e.Locks, h)
			}
		}
		out = append(out, e)
	}
	return out
}
