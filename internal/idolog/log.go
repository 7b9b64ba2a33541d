// Package idolog is the persistent per-thread iDO log (Fig. 3) and the one
// implementation of its protocol: the layout, the boundary record /
// publish / compact path, the lock_array, and (recover.go) the decoder
// and the recovery walk. internal/core drives it from hand-written Go
// FASEs, internal/vm from compiled IR; neither writes a log word itself.
//
// A log is a packed recovery_pc identifying the current idempotent region,
// a lock_array of indirect lock holder addresses, and the region's logged
// inputs — an append-only area of (register, value) boundary records over
// a base image (intRF) that only a rare compaction writes. Its register
// capacity and word stride sit in the header, so recovery and inspection
// decode any log on the list without being told who wrote it. Three rules
// shape the protocol (DESIGN.md §12 argues each crash window):
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
//     whatever comes next. A boundary's publish itself is owed to the new
//     region's first persistent store or inner release: until then the
//     region has only loaded and locked, which resuming at the previous
//     region's entry repeats, and a FASE that ends first never pays it.
//  3. Nothing to recover before the first store. A FASE that has not
//     written persistent memory is dropped by a crash as if it had never
//     started, so until its first store its boundaries only update a
//     volatile register mirror, its lock records and inner slot clears
//     are written back unfenced, and an ending that comes first costs no
//     fence and no pc store. The first store publishes: one record of
//     every register logged so far, one fence, the open region's pc.
//
// Crash-ordering invariants:
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
//     the release that begins one; Reacquired and Unlock detect this from
//     the lock_array mirror and skip the duplicate operation (the paper's
//     instrumented lock library behaves the same way — this is also what
//     makes the "robbed lock" window of §III-B benign).
//
// A runtime with its own resumption record (the VM's JUSTDO baseline)
// creates a raw log: it shares the header, the lock_array, the FASE
// bracket and the walk, publishes its own recovery_pc words with Publish,
// fences them itself, and keeps its register slots in the base image.
package idolog

import (
	"fmt"
	"math/bits"

	"github.com/ido-nvm/ido/internal/lineset"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Log layout (byte offsets within the 64-aligned per-thread log). The
// first cache line holds the list link, the meta word, recovery_pc, the
// lock-slot bitmap and lock slots 0–3, so a FASE of up to four locks
// records or clears a holder with one CLWB. The intRF base image follows
// (one word per register, stride apart), then — line-aligned, so pairs
// pack four to a line — the record area, then lock slots 4–15, then —
// line-aligned again — the words the owning runtime asked for.
const (
	logNext     = 0  // next log in the global list
	logMeta     = 8  // thread id | registers<<32 | stride<<48 | raw<<63
	logPC       = 16 // packed recovery_pc (0 => nothing to resume)
	logLockBits = 24 // live-slot bitmask for the lock array
	logSlots    = 32 // lock_array slots 0..hdrSlots-1
	hdrSlots    = 4
	rfBase      = 64 // intRF: one slot per register

	// NumSlots is the lock_array capacity, RecPairs the record area's in
	// (register, value) pairs, MaxRegs the largest register capacity a log
	// can be created with.
	NumSlots = 16
	RecPairs = 64
	MaxRegs  = 128

	metaRaw = 1 << 63
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

// Unpack splits a recovery_pc word of a log that is not raw.
func Unpack(w uint64) (regionID uint64, pairs int, baseValid bool) {
	return w & (1<<48 - 1), int(w >> 48 & 0xFF), w&pcBase != 0
}

// Log is one thread's handle on its persistent log, embedded in the
// owning runtime's thread type. It must be used from one goroutine.
type Log struct {
	dev  *nvm.Device
	addr uint64
	id   int

	regs    int    // register capacity
	stride  uint64 // bytes between logged words: 8, or a cache line without persist coalescing
	recBase uint64 // offset of the record area
	raw     bool   // recovery_pc words are the runtime's own (Publish)

	durableDepth int
	slots        [NumSlots]uint64 // volatile mirror of the lock_array
	bits         uint64           // volatile mirror of logLockBits
	recovering   bool             // set on recovery threads

	dirty lineset.Set // heap lines dirtied in the current region

	// Volatile mirror of the log: pairs the published recovery_pc covers,
	// pairs put (put-pairs of them await the owed publish), base flag, and
	// the register file recovery would rebuild once everything put is
	// published (what compaction writes into intRF).
	pairs, put int
	base       uint64 // 0, or pcBase once this FASE compacted
	rf         []uint64
	// pend: write-backs or a pc publish are in flight, and a fence is owed
	// before this thread's next persistent store (rule 2).
	pend bool
	// pub: this FASE has published a recovery_pc (rule 3). Until then
	// boundaries only update rf and logged, the set of registers they wrote.
	// cut: a boundary has opened curRegion and its publish is still owed.
	pub, cut bool
	logged   [MaxRegs / 64]uint64

	storesInRegion int
	inRegion       bool

	// rc is this thread's event ring; nil when tracing is off (every
	// method on a nil *obs.Ring is a one-compare no-op).
	rc           *obs.Ring
	curRegion    uint64 // region ID of the open region: trace labels, publish, compaction's republish
	regionT0     int64  // tracer clock at the open of the current region
	faseT0       int64  // tracer clock at FASE entry
	faseLogBytes uint64 // log payload written during the current FASE

	// Stats counts this thread's FASEs, regions and log traffic; the owning
	// runtime adds what it accounts for itself and sums over its threads.
	Stats persist.RuntimeStats
}

// Create allocates and persists a log for thread id with the given
// register capacity and word stride, plus extra bytes for the runtime's
// own use (Extra), and links it onto the global list anchored at the
// region's iDO_head root (Fig. 3). name labels the thread's trace ring.
// Callers serialise Create on a region.
func (l *Log) Create(reg *region.Region, name string, id, regs int, stride, extra uint64, raw bool) error {
	dev := reg.Dev
	meta := uint64(id) | uint64(regs)<<32 | stride<<48
	if raw {
		meta |= metaRaw
	}
	if err := l.setLayout(dev, meta); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	size := l.slotOff(NumSlots)
	if extra > 0 {
		size = l.extraOff() + extra
	}
	p, err := reg.Alloc.Alloc(int(size) + nvm.LineSize)
	if err != nil {
		return fmt.Errorf("%s: allocating log: %w", name, err)
	}
	l.addr = (p + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	dev.Store64(l.addr+logMeta, meta)
	dev.Store64(l.addr+logPC, 0)
	dev.Store64(l.addr+logLockBits, 0)
	dev.Store64(l.addr+logNext, reg.Root(region.RootIDOHead))
	dev.PersistRange(l.addr, size)
	dev.Fence()
	reg.SetRoot(region.RootIDOHead, l.addr) // fenced internally
	l.traceAs(name, "")
	return nil
}

// traceAs gives the log the trace ring name/t<id><suffix>, or none when
// the device has no tracer; the label is only formatted for a tracer.
func (l *Log) traceAs(name, suffix string) {
	l.rc = nil
	if tr := l.dev.Tracer(); tr != nil {
		l.rc = tr.ThreadRing(fmt.Sprintf("%s/t%d%s", name, l.id, suffix))
	}
}

// log is how Spares reaches the Log a runtime's thread type embeds.
func (l *Log) log() *Log { return l }

// setLayout derives the handle's layout from a log's meta word.
func (l *Log) setLayout(dev *nvm.Device, meta uint64) error {
	l.dev = dev
	l.id = int(meta & (1<<32 - 1))
	l.regs = int(meta >> 32 & 0xFFFF)
	l.stride = meta >> 48 & 0xFF
	l.raw = meta&metaRaw != 0
	if l.regs < 1 || l.regs > MaxRegs || (l.stride != 8 && l.stride != nvm.LineSize) {
		return fmt.Errorf("log of %d registers, %d bytes apart (at most %d; 8 or %d)", l.regs, l.stride, MaxRegs, nvm.LineSize)
	}
	l.recBase = (rfBase + uint64(l.regs)*l.stride + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	l.rf = make([]uint64, l.regs)
	return nil
}

// slotOff returns the offset of lock_array slot i (NumSlots: the end of
// the protocol's part of the log).
func (l *Log) slotOff(i int) uint64 {
	if i < hdrSlots {
		return logSlots + uint64(i)*8
	}
	return l.recBase + RecPairs*16 + uint64(i-hdrSlots)*8
}

func (l *Log) extraOff() uint64 {
	return (l.slotOff(NumSlots) + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
}

// ID is the thread index the log was created (or found on the list) with.
func (l *Log) ID() int { return l.id }

// Extra is the line-aligned address of the bytes Create's caller asked for.
func (l *Log) Extra() uint64 { return l.addr + l.extraOff() }

// RegAddr is the address of register r's base-image slot: where a
// compaction puts it, and where a raw log's runtime keeps it.
func (l *Log) RegAddr(r int) uint64 { return l.addr + rfBase + uint64(r)*l.stride }

// Reg is the value register r would resume with if the thread died now
// and its FASE is (or were) published: as last logged in this FASE, else 0.
func (l *Log) Reg(r int) uint64 { return l.rf[r] }

// Ring is the thread's trace ring (nil when tracing is off), for the
// events the owning runtime emits itself.
func (l *Log) Ring() *obs.Ring { return l.rc }

// Depth is the FASE nesting depth: locks held plus open durable sections.
func (l *Log) Depth() int { return bits.OnesCount64(l.bits) + l.durableDepth }

// settle pays the owed fence, if there is one.
func (l *Log) settle() {
	if l.pend {
		l.Fence()
	}
}

// Fence is a persist fence that also settles whatever this log owed.
func (l *Log) Fence() {
	l.dev.Fence()
	l.pend = false
}

// Store64 performs a persistent store, after the fence the last pc
// publish or lock record left owed. Inside a FASE the dirtied line is
// tracked so the enclosing region's boundary can write it back (§III-A:
// "writes-back of variables accessed via pointers are tracked at run time
// and then written back at the end of the region"). No per-store log is
// written — that is the point of iDO.
func (l *Log) Store64(addr, val uint64) {
	fase := l.Depth() > 0
	if fase && l.cut {
		l.publish()
	}
	l.settle()
	l.dev.Store64(addr, val)
	if fase {
		l.dirty.Add(addr &^ (nvm.LineSize - 1))
		l.storesInRegion++
		l.Stats.Stores++
	}
}

// Load64 reads persistent data.
func (l *Log) Load64(addr uint64) uint64 { return l.dev.Load64(addr) }

// closeRegion accounts for the region that just ended.
func (l *Log) closeRegion() {
	if !l.inRegion {
		return
	}
	l.Stats.StoresPerRegion[min(l.storesInRegion, persist.HistStores-1)]++
	l.Stats.Regions++
	if l.rc != nil {
		now := l.rc.Clock()
		l.rc.Span(obs.KRegion, l.curRegion, uint64(l.storesInRegion), l.regionT0)
		l.rc.Observe(obs.HRegionNS, uint64(now-l.regionT0))
		l.rc.Observe(obs.HRegionStores, uint64(l.storesInRegion))
	}
	l.inRegion = false
	l.storesInRegion = 0
}

// persistDirty writes back every line the ending region dirtied in one
// bulk call and orders them, with whatever else is owed a fence, by one
// persist fence (§III-A step 1); nothing dirty and nothing owed, no fence.
// With drain sharing enabled the fence may ride another thread's drain.
func (l *Log) persistDirty() {
	lines := l.dirty.Lines()
	l.dev.FlushLines(lines)
	l.pend = l.pend || len(lines) > 0
	l.settle()
	l.dirty.Reset()
}

// Boundary ends the current idempotent region and opens the one
// identified by regionID: it notes the ending region's OutputSet in the
// volatile mirror — and, once the FASE has published, behind the pairs
// already in the record area — and leaves §III-A's three-step protocol
// owed to the new region's first persistent store (rules 2 and 3).
// Boundary only reads outputs, so callers may reuse the slice.
func (l *Log) Boundary(regionID uint64, outputs ...persist.RegVal) {
	n := len(outputs)
	if n > min(l.regs, RecPairs) {
		panic(fmt.Sprintf("ido: region %#x logs %d outputs (max %d)",
			regionID, n, min(l.regs, RecPairs)))
	}
	if regionID == 0 || regionID >= 1<<48 {
		panic(fmt.Sprintf("ido: region ID %#x out of range", regionID))
	}
	l.closeRegion()
	if l.pub && l.put+n > RecPairs {
		if l.cut {
			l.publish() // compaction writes out the mirror: it must be what recovery_pc covers
		}
		l.compact()
	}
	for _, o := range outputs {
		if o.Reg < 0 || o.Reg >= l.regs {
			panic(fmt.Sprintf("ido: register slot %d out of range", o.Reg))
		}
		l.rf[o.Reg] = o.Val
		if l.pub {
			// Behind what the current recovery_pc covers, so the
			// still-current region's live-ins cannot be clobbered.
			l.putPair(o.Reg, o.Val)
		} else {
			l.logged[o.Reg>>6] |= 1 << uint(o.Reg&63)
		}
	}
	l.curRegion, l.cut = regionID, true
	if !l.pub && l.dirty.Len() > 0 {
		l.publish() // the FASE stored before its first boundary
	}

	l.Stats.OutputsPerRegion[min(n, persist.HistOutputs-1)]++
	if l.rc != nil {
		l.rc.Emit(obs.KBoundary, regionID, uint64(n))
		l.rc.Observe(obs.HOutputsPerRegion, uint64(n))
		l.regionT0 = l.rc.Clock()
	}
	l.inRegion = true
}

// putPair appends a record pair in the cache; publish writes it back.
func (l *Log) putPair(reg int, val uint64) {
	pa := l.addr + l.recBase + uint64(l.put)*16
	l.dev.Store64(pa, uint64(reg))
	l.dev.Store64(pa+8, val)
	l.put++
}

// publish pays the owed boundary: it makes curRegion the region a crash
// resumes at, over every pair put so far. The FASE's first publish, just
// before its first persistent store (rule 3), puts one pair for every
// register the prefix boundaries logged, last value each, and its fence —
// unconditional — is also the fence of every lock record and slot clear
// so far. The open region is published mid-flight; that is sound because
// all it has done is load and lock, which resumption repeats (re-acquired
// locks first) or skips via the slot mirror.
func (l *Log) publish() {
	dev := l.dev
	if !l.pub {
		l.pub = true
		n := 0
		for _, m := range l.logged {
			n += bits.OnesCount64(m)
		}
		if n > RecPairs {
			// More registers than one record holds: they go out as the base
			// image, which nothing reads while recovery_pc is still 0.
			dev.FlushLines(l.dirty.Lines())
			l.dirty.Reset()
			l.compact()
			l.Logged(uint64(n)*8 + 8)
			return
		}
		for w, m := range l.logged {
			for ; m != 0; m &= m - 1 {
				r := w<<6 + bits.TrailingZeros64(m)
				l.putPair(r, l.rf[r])
			}
		}
		l.pend = true
	}
	// Step 1: the record — coalesced, pairs pack four to a cache line, so
	// up to eight registers cost two or three contiguous write-backs
	// (§IV-B) — plus any heap lines the ended regions dirtied; fence.
	n := uint64(l.put - l.pairs)
	rec := l.addr + l.recBase + uint64(l.pairs)*16
	if l.stride == 8 {
		dev.PersistRange(rec, n*16)
	} else {
		for a := rec; a < rec+n*16; a += 8 {
			dev.CLWB(a)
		}
	}
	l.pend = l.pend || n > 0
	l.persistDirty()

	// Step 2: publish the new recovery_pc; the pair count rides in the
	// packed word, so region and record set switch atomically and from
	// here on a crash resumes at curRegion's entry. The publish is a
	// non-temporal store: a cached store plus write-back would let the
	// crash adversary decide whether the pc reached the persistence
	// domain — for a FASE's first publish, between "FASE never started"
	// and "FASE resumes" — breaking the adversary-independence of recovery
	// (§III-C) that the chaos harness's persist-all oracle checks exactly.
	// The fence ordering it before the new region's stores is owed.
	// Step 3 is the caller executing the region's code.
	l.pairs, l.cut = l.put, false
	dev.StoreNT(l.addr+logPC, pcPack(l.curRegion, l.pairs, l.base))
	l.pend = true
	l.Logged(n*8 + 8)
}

// Logged counts one log record of the given payload size, for the
// runtime statistics and the trace's bytes-per-FASE histogram.
func (l *Log) Logged(bytes uint64) {
	l.Stats.LoggedEntries++
	l.Stats.LoggedBytes += bytes
	l.faseLogBytes += bytes
}

// compact empties the record area when the next boundary would overflow
// it: the register file the current recovery_pc describes goes into intRF
// in place, and the current region is republished with no pairs over that
// base. Replaying the old pairs over a partly written intRF
// yields the same register file (a pair decides its register; one without
// a pair is rewritten to the value it had), so a crash in here resumes the
// same region with the same inputs. The pc must be durable before intRF
// changes under it, and the new pc before fresh pairs overwrite the old.
func (l *Log) compact() {
	dev := l.dev
	l.settle()
	for r, v := range l.rf {
		dev.Store64(l.RegAddr(r), v)
	}
	dev.PersistRange(l.addr+rfBase, uint64(l.regs)*l.stride)
	dev.Fence()
	l.pairs, l.put, l.base, l.cut = 0, 0, pcBase, false
	dev.StoreNT(l.addr+logPC, pcPack(l.curRegion, 0, pcBase))
	dev.Fence()
}

// Publish stores a raw log's recovery_pc word — the owning runtime's own
// encoding, never 0 — as one non-temporal store, and marks the FASE
// published: inner releases fence their slot clear from here on and the
// FASE's end clears the word. The runtime fences the publish itself.
func (l *Log) Publish(w uint64) {
	l.dev.StoreNT(l.addr+logPC, w)
	l.pub = true
}

// endFASE makes the FASE's effects durable and then clears recovery_pc
// (dropping the pairs and the base image with it), each under its own
// fence: data before pc = 0, pc = 0 before the caller hands the mutex
// over. The clear is a single NT store for the same reason the publish is.
// A FASE that never stored never published: its pc is 0 already and there
// is nothing to write back, so it ends without a device event.
func (l *Log) endFASE() {
	l.closeRegion()
	l.persistDirty()
	if l.pub {
		l.dev.StoreNT(l.addr+logPC, 0)
		l.dev.Fence()
	}
	l.pairs, l.put, l.base = 0, 0, 0
	clear(l.rf)
	l.pub, l.cut, l.logged, l.curRegion = false, false, [MaxRegs / 64]uint64{}, 0
	l.Stats.FASEs++
	if l.rc != nil {
		l.rc.Span(obs.KFASE, l.faseLogBytes, 0, l.faseT0)
		l.rc.Observe(obs.HLogBytesPerFASE, l.faseLogBytes)
	}
}

// slotOf probes only the slots the bits mask marks live (slots[i] != 0
// exactly when bit i is set), instead of scanning all NumSlots entries.
func (l *Log) slotOf(holder uint64) int {
	for m := l.bits; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if l.slots[i] == holder {
			return i
		}
	}
	return -1
}

// freeSlot returns the lowest empty lock_array slot, or -1 when full.
func (l *Log) freeSlot() int {
	if i := bits.TrailingZeros64(^l.bits); i < NumSlots {
		return i
	}
	return -1
}

// setSlot updates lock_array slot i and the bitmap, in the mirror and in
// the log, and writes the log words back: one CLWB for slots 0–3, which
// share the bitmap's line.
func (l *Log) setSlot(i int, holder, bits uint64) {
	l.slots[i], l.bits = holder, bits
	sa := l.addr + l.slotOff(i)
	l.dev.Store64(sa, holder)
	l.dev.Store64(l.addr+logLockBits, l.bits)
	if i >= hdrSlots {
		l.dev.CLWB(sa)
	}
	l.dev.CLWB(l.addr + logLockBits)
}

// Lock acquires lk and records it: Reacquired, Acquire, Acquired.
func (l *Log) Lock(lk *locks.Lock) {
	if l.Reacquired(lk) {
		return
	}
	lk.Acquire()
	l.Acquired(lk)
}

// Reacquired reports whether lk is already in the lock_array mirror:
// resumption re-executing an acquire the crashed thread had completed,
// which the caller skips. Outside recovery that is a recursive acquire.
func (l *Log) Reacquired(lk *locks.Lock) bool {
	if l.slotOf(lk.Holder()) < 0 {
		return false
	}
	if !l.recovering {
		panic("ido: recursive Lock outside recovery")
	}
	return true
}

// Acquired records the indirect holder of lk, which the caller has just
// acquired, in the lock_array (§III-B). Before the FASE publishes, the
// record waits for publish's fence, which is all it has to precede;
// after, it is a store of the open region and its own fence is owed.
func (l *Log) Acquired(lk *locks.Lock) {
	slot := l.freeSlot()
	if slot < 0 {
		panic("ido: lock_array overflow (more than 16 locks held)")
	}
	l.settle() // a published FASE's nested acquire is a store of the open region
	l.openFASE()
	l.setSlot(slot, lk.Holder(), l.bits|1<<uint(slot))
	l.pend = l.pub // an unpublished one's record waits for publish's fence
	l.rc.Emit(obs.KLockAcq, lk.Holder(), 0)
}

// held returns lk's slot in the lock_array mirror, or -1 when resumption
// re-executes a release the crashed thread had already completed. Outside
// recovery an absent lock is one the thread does not hold.
func (l *Log) held(lk *locks.Lock) int {
	slot := l.slotOf(lk.Holder())
	if slot < 0 && !l.recovering {
		panic("ido: unlocking a lock this thread does not hold")
	}
	return slot
}

// Released reports whether Unlock(lk) would be the no-op of a re-executed
// release, for a runtime with work of its own to skip then.
func (l *Log) Released(lk *locks.Lock) bool { return l.held(lk) < 0 }

// Unlock releases lk. An inner release (other locks remain held) clears
// the lock_array entry and, once the FASE has published, fences the clear
// before the mutex changes hands; before that the clear sits under a
// durable recovery_pc == 0 and publish's fence orders it ahead of any pc
// that could make it matter. The FASE's final release first ends the FASE
// and only then clears the slot and releases — so recovery_pc != 0 always
// finds its locks recorded, and a slot clear still in flight sits under a
// durable recovery_pc == 0.
func (l *Log) Unlock(lk *locks.Lock) {
	slot := l.held(lk)
	if slot < 0 {
		return
	}
	last := l.Depth() == 1
	if last {
		l.endFASE()
	} else {
		if l.pub && l.cut {
			l.publish() // what ran under lk must not run again once lk is released
		}
		l.settle()
	}
	l.setSlot(slot, 0, l.bits&^(1<<uint(slot)))
	if !last && l.pub {
		l.dev.Fence()
	}
	l.rc.Emit(obs.KLockRel, lk.Holder(), 0)
	lk.Release()
}

// BeginDurable opens a programmer-delineated FASE (§II-B). The caller
// must issue a Boundary immediately after, exactly as the compiler
// inserts one after each lock acquire.
func (l *Log) BeginDurable() {
	l.openFASE()
	l.durableDepth++
}

// openFASE starts the trace clock of a FASE at its outermost entry.
func (l *Log) openFASE() {
	if l.rc != nil && l.Depth() == 0 {
		l.faseT0 = l.rc.Clock()
		l.faseLogBytes = 0
	}
}

// EndDurable closes a programmer-delineated FASE, persisting its effects
// and clearing recovery_pc.
func (l *Log) EndDurable() {
	if l.durableDepth == 0 {
		panic("ido: EndDurable without BeginDurable")
	}
	if l.Depth() == 1 {
		l.endFASE()
	}
	l.durableDepth--
}
