// Package nvm simulates a byte-addressable nonvolatile memory device that
// sits behind a volatile CPU cache, following the system model of the iDO
// paper (MICRO 2018, §II-A): ordinary loads and stores hit a volatile cache
// whose lines are written back to the persistence domain in arbitrary order;
// programs enforce ordering with explicit write-back (CLWB) and persist
// fence (Fence) operations; writes are atomic at 8-byte granularity.
//
// A crash (Crash) discards all volatile state. Depending on the crash mode,
// dirty cache words may be lost, fully written back, or adversarially
// written back word-by-word at random — the strongest failure adversary
// consistent with 8-byte write atomicity.
//
// The device also implements the paper's NVM-latency sensitivity knob
// (§V-E): a configurable extra delay charged after each write-back and
// after each non-temporal store, emulated with a calibrated spin loop just
// as Mnemosyne and Atlas emulate it with nop loops.
//
// # Hot-path architecture
//
// The device is one table of page pointers indexed by addr/4096. A page
// covers 64 lines and holds their state words (valid bitmask, dirty
// bitmask and a spinlock bit per line), their persistent words and their
// cached copies. New allocates only the table; a page is allocated once,
// on the first store, NT store or bulk write into it, and installed by
// compare-and-swap. A page that was never written reads as zero and is
// never cached or dirty, so the host pays for the bytes a program writes,
// not for the device's capacity — as a DAX mapping behind a cache would.
// There are no maps and no locks shared between lines, so simulated
// memory traffic from different threads only meets where real cache lines
// would (see README.md in this directory for the locking discipline and
// the argument that crash semantics are unchanged).
//
// Loads are lock-free: one atomic read of the page pointer and one of the
// line state pick the cached or the persistent copy. Pages are never
// freed or recycled while the device lives, so a pointer once read stays
// valid and there is no ABA. Stores take only their own line's lock bit.
// Event counters are striped across padded per-goroutine-ish slots and
// summed lazily by Stats.
package nvm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"unsafe"

	"github.com/ido-nvm/ido/internal/obs"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// WordSize is the atomic write granularity in bytes (§II-A).
const WordSize = 8

const (
	wordsPerLine = LineSize / WordSize
	lineShift    = 6 // log2(LineSize)
	wordShift    = 3 // log2(WordSize)

	linesPerPage = 64
	wordsPerPage = linesPerPage * wordsPerLine
	pageShift    = 12 // log2(linesPerPage * LineSize)
)

// page is 4 KiB of the device: the state words of its 64 lines, their
// persistent words (what survives CrashDiscard) and their cached copies.
// state is indexed by line within the page, words and cached by word
// within the page.
type page struct {
	state  [linesPerPage]atomic.Uint32
	words  [wordsPerPage]uint64
	cached [wordsPerPage]uint64
}

// pageLine and pageWord index addr's line and word within its page.
func pageLine(addr uint64) uint64 { return addr >> lineShift & (linesPerPage - 1) }
func pageWord(addr uint64) uint64 { return addr >> wordShift & (wordsPerPage - 1) }

// Per-line state word layout. Bits 0–7 are the valid mask (word i of the
// line has a cached copy), bits 8–15 the dirty mask (cached copy not yet
// written back), bit 16 the line spinlock. dirty ⊆ valid always holds.
const (
	validShift = 0
	dirtyShift = 8
	laneMask   = 0xFF
	lineLock   = 1 << 16
)

// Config parameterizes a simulated device.
type Config struct {
	// Size is the device capacity in bytes. It is rounded up to a whole
	// number of cache lines. Must be > 0.
	Size int

	// FlushNS is the base cost, in nanoseconds, of one cache-line
	// write-back (clwb/clflush reaching the memory controller).
	FlushNS int

	// FenceNS is the base cost of one persist fence (sfence waiting for
	// outstanding write-backs).
	FenceNS int

	// NTStoreNS is the base cost of one non-temporal store.
	NTStoreNS int

	// ExtraNS is the additional NVM write latency charged after each
	// write-back and each non-temporal store. This is the knob swept in
	// the paper's Fig. 9 (20–2000 ns).
	ExtraNS int

	// EvictionRate, if nonzero, makes roughly one in EvictionRate stores
	// spontaneously write back a random dirty line, modeling capacity
	// evictions that persist data the program never flushed. Used by
	// correctness tests; leave zero for benchmarks.
	EvictionRate int

	// Tracer, if non-nil, is attached before the device services its
	// first operation, so every persistence event — including region
	// formatting — is traced and trace counts equal Stats exactly.
	// SetTracer can attach or swap one later, but operations performed
	// in the meantime are counted yet untraced.
	Tracer *obs.Tracer

	// Ignored: kept only for benchmark/, and deleted by the
	// referee-touching follow-up (see groupcommit.go).
	GroupCommit GroupCommitConfig
}

// CrashMode selects what happens to dirty (unflushed) cache words when the
// device crashes.
type CrashMode int

const (
	// CrashDiscard drops every dirty word: nothing unflushed survives.
	CrashDiscard CrashMode = iota
	// CrashRandom independently persists or drops each dirty word with
	// probability 1/2 — arbitrary-order write-back at 8-byte atomicity.
	CrashRandom
	// CrashPersistAll writes every dirty word back before dying, as if
	// the whole cache were flushed by a residual-energy mechanism.
	CrashPersistAll
)

func (m CrashMode) String() string {
	switch m {
	case CrashDiscard:
		return "discard"
	case CrashRandom:
		return "random"
	case CrashPersistAll:
		return "persist-all"
	default:
		return fmt.Sprintf("CrashMode(%d)", int(m))
	}
}

// Stats reports cumulative event counts for a device.
type Stats struct {
	Loads     uint64 // Load64 calls
	Stores    uint64 // Store64 calls
	NTStores  uint64 // StoreNT calls
	Flushes   uint64 // CLWB calls
	Fences    uint64 // Fence calls
	Evictions uint64 // spontaneous write-backs
	Crashes   uint64 // Crash calls
}

// Counter indices within a statStripe.
const (
	statLoads = iota
	statStores
	statNTStores
	statFlushes
	statFences
	statEvictions
	statCrashes
	statEvents
)

// statStripe is one padded slot of the sharded event counters: seven
// counters plus padding so two stripes never share a cache line.
type statStripe struct {
	n [statEvents]uint64
	_ [64 - statEvents*8%64]byte
}

// nStripes is the number of counter/RNG stripes. Power of two.
const nStripes = 64

// evictStripe is one padded lock-free eviction-sampling RNG (xorshift64).
type evictStripe struct {
	x uint64
	_ [56]byte
}

// Device is a simulated NVM DIMM plus the volatile cache in front of it.
// All exported methods are safe for concurrent use.
type Device struct {
	cfg   Config
	limit uint64 // capacity in bytes

	// pages is indexed by page number (addr/4096). An entry is nil until
	// the first write into its page and never changes after that.
	pages []atomic.Pointer[page]

	// Separate 4 KiB pointer-free allocations, so each starts on a cache
	// line and every 64-byte stripe owns exactly one.
	stripes *[nStripes]statStripe
	evict   *[nStripes]evictStripe

	extraNS atomic.Int64 // runtime-adjustable copy of cfg.ExtraNS

	// trc is the attached persist-event tracer, nil when tracing is off.
	// Each persistence operation (write-back, fence, NT store, eviction,
	// crash) emits exactly one obs event alongside its stat count, so a
	// trace's per-kind event counts always equal Stats deltas. Loads and
	// stores are deliberately not traced: they are the simulation's
	// hottest path and the paper's argument is about persist events.
	trc atomic.Pointer[obs.Tracer]

	// inj is the device's crash injection (inject.go), checked by every
	// event hook.
	inj inject
}

// SetTracer attaches (or, with nil, detaches) a persist-event tracer.
// Attach while the device is quiescent; the hot paths read the pointer
// with a single atomic load.
func (d *Device) SetTracer(tr *obs.Tracer) { d.trc.Store(tr) }

// Tracer returns the attached tracer, or nil. Runtimes use this to hang
// their own per-thread event rings off the same timeline.
func (d *Device) Tracer() *obs.Tracer { return d.trc.Load() }

// New creates a device. It panics if cfg.Size <= 0.
func New(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("nvm: Config.Size must be positive")
	}
	lines := (cfg.Size + LineSize - 1) / LineSize
	d := &Device{
		cfg:     cfg,
		limit:   uint64(lines) * LineSize,
		pages:   make([]atomic.Pointer[page], (lines+linesPerPage-1)/linesPerPage),
		stripes: new([nStripes]statStripe),
		evict:   new([nStripes]evictStripe),
	}
	seed := uint64(0x1D0)
	for i := range d.evict {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		if z == 0 {
			z = 1 // xorshift state must be nonzero
		}
		d.evict[i].x = z
	}
	d.extraNS.Store(int64(cfg.ExtraNS))
	d.trc.Store(cfg.Tracer)
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return int(d.limit) }

// SetExtraLatency changes the added NVM write latency (ns) at run time.
// Used by the Fig. 9 sensitivity sweep.
func (d *Device) SetExtraLatency(ns int) { d.extraNS.Store(int64(ns)) }

// checkAddr validates alignment and bounds with a single combined branch;
// the panics live in a cold, noinline function so the check inlines into
// every hot path.
func (d *Device) checkAddr(addr uint64) {
	if addr&(WordSize-1) != 0 || addr >= d.limit {
		d.addrFault(addr)
	}
}

//go:noinline
func (d *Device) addrFault(addr uint64) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("nvm: misaligned address %#x", addr))
	}
	panic(fmt.Sprintf("nvm: address %#x out of range (size %#x)", addr, d.Size()))
}

// count adds n to one event counter on this goroutine's stripe. The
// stripe index is derived from the caller's stack pointer, which is
// stable enough to keep goroutines on distinct stripes without any
// registration. Totals are exact for single-threaded histories; see
// wordops.go for the concurrent-counting contract.
func (d *Device) count(ev int, n uint64) {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe))) * 0x9E3779B97F4A7C15
	addCounter(&d.stripes[h>>58].n[ev], n)
}

// readPage returns the page holding addr, or nil if nothing was ever
// written into it: a nil page reads as zero and is never cached or dirty.
func (d *Device) readPage(addr uint64) *page { return d.pages[addr>>pageShift].Load() }

// installPage returns the page holding addr, allocating and installing a
// zeroed one if nothing was written there yet. Writers call it only after
// readPage returned nil, which keeps their fast path one inlined load. Of
// two racing first writers, one compare-and-swap wins and both use its
// page; the loser's allocation is garbage that no reader ever saw.
func (d *Device) installPage(addr uint64) *page {
	pp := &d.pages[addr>>pageShift]
	p := new(page)
	if pp.CompareAndSwap(nil, p) {
		return p
	}
	return pp.Load()
}

// lockLine acquires the spinlock in line state s via test-and-set and
// returns the observed state (lock bit set). Only the lock holder may
// mutate the line's cached words or its valid/dirty masks, so the holder
// releases by storing the complete new state word. The loop is
// crash-aware: waiters die once the device's injected crash has fired
// (inject.go).
//
// Acquisition is spelled Load+CompareAndSwap rather than the tidier
// s.Or(lineLock): go1.24.0/amd64 lowers value-returning atomic Or to a
// CMPXCHG loop whose scratch register is not modeled as clobbered, so
// the allocator may park a live pointer there — with d needed across
// the intrinsic for the crash check below, the spin then dereferenced
// a state word as d and segfaulted under lock contention.
func (d *Device) lockLine(s *atomic.Uint32) uint32 {
	for i := 0; ; i++ {
		if st := s.Load(); st&lineLock == 0 && s.CompareAndSwap(st, st|lineLock) {
			return st | lineLock
		}
		// Spin on plain loads until the lock looks free; on a
		// single-P schedule the holder needs the processor to make
		// progress, so yield periodically.
		for s.Load()&lineLock != 0 {
			i++
			if i&63 == 0 {
				if d.LocalCrashFired() {
					panic(CrashSignal{})
				}
				runtime.Gosched()
			}
		}
	}
}

// unlockLine publishes st (computed by the holder, lock bit clear) as the
// line's new state.
func unlockLine(s *atomic.Uint32, st uint32) { s.Store(st &^ lineLock) }

// Store64 writes an 8-byte word into the volatile cache.
func (d *Device) Store64(addr, val uint64) {
	d.crashTick()
	d.checkAddr(addr)
	d.count(statStores, 1)
	p := d.readPage(addr)
	if p == nil {
		p = d.installPage(addr)
	}
	wi := addr >> wordShift & (wordsPerLine - 1)
	s := &p.state[pageLine(addr)]
	st := d.lockLine(s)
	storeWord(&p.cached[pageWord(addr)], val)
	unlockLine(s, st|1<<(validShift+wi)|1<<(dirtyShift+wi))
	if r := d.cfg.EvictionRate; r > 0 {
		d.maybeEvict(addr>>lineShift, r)
	}
}

// Load64 reads an 8-byte word, observing the cache first. The read is
// lock-free: one atomic read of the page pointer and one of the line
// state select the cached or the persistent copy, and a load racing a
// store to the same word returns either the old or the new value —
// exactly the guarantee 8-byte-atomic hardware gives two unsynchronized
// threads.
func (d *Device) Load64(addr uint64) uint64 {
	d.crashTick()
	d.checkAddr(addr)
	d.count(statLoads, 1)
	p := d.readPage(addr)
	if p == nil {
		return 0
	}
	w := pageWord(addr)
	if p.state[w/wordsPerLine].Load()&(1<<(validShift+w%wordsPerLine)) != 0 {
		return loadWord(&p.cached[w])
	}
	return loadWord(&p.words[w])
}

// StoreNT performs a non-temporal store: the word goes straight to the
// persistence domain, bypassing (and invalidating in) the cache. Ordering
// with respect to later stores still requires a Fence.
func (d *Device) StoreNT(addr, val uint64) {
	d.crashTick()
	d.checkAddr(addr)
	d.count(statNTStores, 1)
	tr := d.trc.Load()
	t0 := tr.Clock()
	p := d.readPage(addr)
	if p == nil {
		p = d.installPage(addr)
	}
	wi := addr >> wordShift & (wordsPerLine - 1)
	s := &p.state[pageLine(addr)]
	st := d.lockLine(s)
	storeWord(&p.words[pageWord(addr)], val)
	unlockLine(s, st&^(1<<(validShift+wi)|1<<(dirtyShift+wi)))
	spin(d.cfg.NTStoreNS + int(d.extraNS.Load()))
	if tr != nil {
		tr.DevSpan(obs.KNTStore, addr, 0, t0)
	}
}

// writeBack copies line l's dirty cached words into the persistence
// domain and returns the state with the dirty mask cleared. The line lock
// must be held; st is the held state.
func (p *page) writeBack(l uint64, st uint32) uint32 {
	dirty := st >> dirtyShift & laneMask
	wbase := l * wordsPerLine
	for wi := uint64(0); dirty != 0; wi++ {
		if dirty&(1<<wi) != 0 {
			storeWord(&p.words[wbase+wi], loadWord(&p.cached[wbase+wi]))
			dirty &^= 1 << wi
		}
	}
	return st &^ (laneMask << dirtyShift)
}

// flushLine writes back line l of p if it is dirty and reports whether it
// was. It peeks before locking: flushing an already-clean line is a
// no-op.
func (d *Device) flushLine(p *page, l uint64) bool {
	s := &p.state[l]
	if s.Load()&(laneMask<<dirtyShift) == 0 {
		return false
	}
	st := d.lockLine(s)
	unlockLine(s, p.writeBack(l, st))
	return st&(laneMask<<dirtyShift) != 0
}

// CLWB writes back the dirty words of the cache line containing addr to
// the persistence domain, leaving the line cached clean.
func (d *Device) CLWB(addr uint64) {
	d.crashTick()
	d.checkAddr(addr)
	d.count(statFlushes, 1)
	tr := d.trc.Load()
	t0 := tr.Clock()
	if p := d.readPage(addr); p != nil {
		d.flushLine(p, pageLine(addr))
	}
	spin(d.cfg.FlushNS + int(d.extraNS.Load()))
	if tr != nil {
		tr.DevSpan(obs.KFlush, addr, 0, t0)
	}
}

// PersistRange issues CLWB for every line overlapping [addr, addr+n).
// The caller must still Fence to order the write-backs.
func (d *Device) PersistRange(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr &^ (LineSize - 1)
	last := (addr + n - 1) &^ (LineSize - 1)
	for base := first; ; base += LineSize {
		d.CLWB(base)
		if base == last {
			break
		}
	}
}

// Fence is a persist fence: all preceding write-backs are guaranteed
// durable once it returns. It is charged per thread, as the paper charged
// its §V delays: it spins FenceNS on the calling goroutine and nothing
// else, so two threads' fences overlap, like two cores' sfences.
func (d *Device) Fence() {
	d.crashTick()
	tr := d.trc.Load()
	t0 := tr.Clock()
	spin(d.cfg.FenceNS)
	d.count(statFences, 1)
	if tr != nil {
		tr.DevSpan(obs.KFence, 0, 0, t0)
	}
}

// maybeEvict spontaneously writes back one pseudo-random dirty line with
// probability 1/rate, modeling capacity evictions. Sampling is lock-free:
// each stripe owns a padded xorshift64 state seeded at New, so the store
// path takes no global lock and the sequence is deterministic for a
// single-threaded history.
func (d *Device) maybeEvict(li uint64, rate int) {
	e := &d.evict[li*0x9E3779B97F4A7C15>>58]
	x := loadWord(&e.x)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	storeWord(&e.x, x)
	if x%uint64(rate) != 0 {
		return
	}
	// Probe a bounded window of lines from a pseudo-random start for a
	// dirty victim. The dirty peek is lock-free; only a hit locks. A line
	// on a page never written is clean.
	nl := d.limit >> lineShift
	start := (x >> 17) % nl
	probes := nl
	if probes > 256 {
		probes = 256
	}
	for i, lj := uint64(0), start; i < probes; i++ {
		if p := d.readPage(lj << lineShift); p != nil && d.flushLine(p, lj%linesPerPage) {
			d.count(statEvictions, 1)
			if tr := d.trc.Load(); tr != nil {
				tr.DevEmit(obs.KEvict, lj<<lineShift, 0)
			}
			return
		}
		lj++
		if lj == nl {
			lj = 0
		}
	}
}

// Crash destroys all volatile state. Dirty words are handled per mode;
// rng drives CrashRandom and may be nil for the deterministic modes.
// After Crash the device contains only what had (or happened to have)
// reached the persistence domain, exactly like a machine losing power.
func (d *Device) Crash(mode CrashMode, rng *rand.Rand) {
	d.count(statCrashes, 1)
	// The injected crash (if any) has now happened: the reopened device
	// starts with injection disarmed, like a rebooted machine.
	d.ArmLocalCrash(-1)
	if tr := d.trc.Load(); tr != nil {
		tr.DevEmit(obs.KCrash, uint64(mode), 0)
	}
	if mode == CrashRandom && rng == nil {
		panic("nvm: CrashRandom requires a *rand.Rand")
	}
	// Pages never written hold no cache state. The walk keeps ascending
	// address order, so CrashRandom draws rng for the same dirty words in
	// the same order whatever the page table holds.
	for pi := range d.pages {
		p := d.pages[pi].Load()
		if p == nil {
			continue
		}
		for l := range p.state {
			s := &p.state[l]
			st := d.lockLine(s)
			if dirty := st >> dirtyShift & laneMask; dirty != 0 {
				wbase := uint64(l) * wordsPerLine
				switch mode {
				case CrashPersistAll:
					p.writeBack(uint64(l), st)
				case CrashRandom:
					for wi := uint64(0); wi < wordsPerLine; wi++ {
						if dirty&(1<<wi) != 0 && rng.Intn(2) == 0 {
							storeWord(&p.words[wbase+wi], loadWord(&p.cached[wbase+wi]))
						}
					}
				case CrashDiscard:
					// dirty words are simply lost
				}
			}
			unlockLine(s, 0) // the whole line's cache state dies
		}
	}
}

// DrainCache writes back every dirty line (a global flush). Used by
// region snapshotting, not by the runtimes.
func (d *Device) DrainCache() {
	for pi := range d.pages {
		if p := d.pages[pi].Load(); p != nil {
			for l := range p.state {
				d.flushLine(p, uint64(l))
			}
		}
	}
}

// Stats returns a snapshot of cumulative event counts, summed over the
// counter stripes.
func (d *Device) Stats() Stats {
	var n [statEvents]uint64
	for i := range d.stripes {
		for ev := 0; ev < statEvents; ev++ {
			n[ev] += readCounter(&d.stripes[i].n[ev])
		}
	}
	return Stats{
		Loads:     n[statLoads],
		Stores:    n[statStores],
		NTStores:  n[statNTStores],
		Flushes:   n[statFlushes],
		Fences:    n[statFences],
		Evictions: n[statEvictions],
		Crashes:   n[statCrashes],
	}
}

// ResetStats zeroes the event counters.
func (d *Device) ResetStats() {
	for i := range d.stripes {
		for ev := 0; ev < statEvents; ev++ {
			resetCounter(&d.stripes[i].n[ev])
		}
	}
}
