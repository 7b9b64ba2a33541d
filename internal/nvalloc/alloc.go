// Package nvalloc implements an nv_malloc/nv_free style allocator over a
// range of a simulated NVM device, in the spirit of the Atlas region
// manager that iDO reuses (§IV-C). Block headers live in NVM and are
// persisted eagerly, so a post-crash scan can always rebuild the volatile
// free lists; the free lists themselves are transient.
//
// The volatile side is segregated and lock-light, mirroring the device's
// striped hot path: power-of-two size classes (16 B .. 4 KiB), each
// fronted by a magazine — a lock-free ring of atomic words caching
// pre-carved blocks — so a steady-state Alloc/Free claims or parks a
// block with one atomic swap and touches no lock at all. Behind the
// magazines sit lock-striped per-class free-list shards, and requests
// above the largest class fall back to striped first-fit buckets.
//
// Determinism contract: a single-threaded sequence of Alloc/Free calls
// against identical heaps produces identical addresses and identical
// device traffic. Every placement decision is a function of block
// addresses and the call sequence (magazine rings and shard scans go in
// fixed index order, shard homes hash the block address) — never of
// goroutine identity or stack layout. The engine-equivalence suites
// (decoded VM vs tree-walker, native vs VM) rely on this to compare
// runs word-for-word.
//
// The persistent layout is one run of size<<1|flags headers, written and
// flushed before any block changes ownership. Class blocks live in
// fixed-size, arena-aligned slab segments whose first header carries
// slabBit, everything else in byte-granular extents between them, so
// Attach reads one header per segment or extent and a segment's free
// blocks are adopted lazily, by scanning that one segment the first
// time its class runs dry (README.md has the crash argument).
package nvalloc

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
)

const (
	// A header is one word, size<<1 | flags. Sizes are multiples of 8,
	// so header bits 1..3 are spare; bit 1 marks the first block of a
	// slab segment, whether that block is allocated or free.
	headerSize = 8
	minBlock   = headerSize + 8
	allocBit   = 1
	slabBit    = 2

	// segSize is the slab segment: class blocks are carved only inside
	// [start+k*segSize, start+(k+1)*segSize) ranges (the arena's last
	// one may be cut short by its end), one class per segment, and no
	// block crosses a segment's bounds, so Attach hops a whole segment
	// on reading its first header.
	segSize = 64 << 10

	// Size classes: classSize(c) = minBlock << c, c in [0, nClasses).
	// The largest class (4 KiB) bounds the magazine path; bigger blocks
	// take the striped first-fit path.
	nClasses = 9
	maxSmall = minBlock << (nClasses - 1)

	// Volatile layout: per-class magazine depth, lock stripes per class,
	// large-path stripes, counter lanes, and blocks carved per refill.
	magDepth  = 16
	nShards   = 8
	nLarge    = 8
	nStripes  = 16
	magRefill = 16

	// A failed full scan re-runs while other threads hold free extents
	// privately (see Alloc): the first spinRetries rescans just yield,
	// after which the waiter sleeps with an escalating (capped) backoff
	// so a holder starved of CPU on an oversubscribed box still gets to
	// finish its carve. oomRetries bounds the total so a pathological
	// every-thread-failing churn becomes an error instead of a livelock;
	// a real carve window clears in a few yields.
	spinRetries = 32
	oomRetries  = 512
)

func classSize(c int) uint64 { return minBlock << c }

// blockSize is the size field of a header word.
func blockSize(h uint64) uint64 { return (h &^ (allocBit | slabBit)) >> 1 }

// sizeFits reports whether a block of size bytes can sit at p below lim.
func sizeFits(p, size, lim uint64) bool {
	return size >= minBlock && size%8 == 0 && p+size <= lim
}

// classFor returns the smallest class whose blocks satisfy a request of
// need bytes (header included). need must be <= maxSmall.
func classFor(need uint64) int {
	c := bits.Len64(need-1) - 4
	if c < 0 {
		c = 0
	}
	return c
}

// classOfBlock maps an existing block size back to the class list that
// can store it. Carving folds an 8-byte tail sliver into the last block,
// so class lists hold blocks of exactly classSize(c) or classSize(c)+8;
// anything else (split remainders, segment tails) is an extent.
func classOfBlock(size uint64) (int, bool) {
	c := bits.Len64(size) - 5
	if c < 0 || c >= nClasses {
		return 0, false
	}
	if s := classSize(c); size == s || size == s+8 {
		return c, true
	}
	return 0, false
}

// block is a free extent: device address of its header plus total size.
// Sizes ride along in the volatile lists so the hot path never re-reads
// a header it already knows.
type block struct {
	addr, size uint64
}

// magazine is one size class's lock-free cache of pre-carved blocks: a
// fixed ring of atomic words, each either 0 (empty) or a packed free
// block. Alloc claims a slot with a single Swap, Free parks with a
// CompareAndSwap; both scan the ring in fixed index order, so a
// single-threaded run is deterministic while concurrent threads simply
// skip slots another thread just won. A word packs its block as
// addr | presentBit | extraBit: addresses are 8-aligned so the low
// three bits are spare; extraBit marks a classSize+8 block (the folded
// tail sliver), and presentBit distinguishes a block at address 0 from
// an empty slot.
type magazine struct {
	w [magDepth]atomic.Uint64
}

const (
	hotPresent = 2
	hotExtra   = 1
)

func packHot(c int, b block) uint64 {
	w := b.addr | hotPresent
	if b.size != classSize(c) {
		w |= hotExtra
	}
	return w
}

func unpackHot(c int, w uint64) block {
	b := block{addr: w &^ 7, size: classSize(c)}
	if w&hotExtra != 0 {
		b.size += 8
	}
	return b
}

// classShard is one stripe of a size class's shared free list.
type classShard struct {
	mu  sync.Mutex
	blk []block
	_   [32]byte
}

// largeShard is one stripe of the first-fit path: floor-class ->
// candidate blocks.
type largeShard struct {
	mu   sync.Mutex
	free map[int][]block
}

// stripe is one lane of the allocator's counters, padded to a cache
// line. allocated is signed: a lane may see more frees than allocs.
type stripe struct {
	allocated atomic.Int64
	allocs    atomic.Uint64
	frees     atomic.Uint64
	refills   atomic.Uint64
	magHits   atomic.Uint64
	_         [24]byte
}

// lane picks a counter stripe by hashing the caller's stack position —
// the same goroutine-affine trick as the device's striped stat
// counters. Counters are the one place this hash is safe: which lane a
// delta lands in never changes any allocation decision, only where the
// addition happens, and Stats sums all lanes.
func lane() uint64 {
	var probe byte
	return (uint64(uintptr(unsafe.Pointer(&probe))) * 0x9E3779B97F4A7C15) >> (64 - 4)
}

// Allocator hands out word-aligned blocks from [start, end) on a device.
// All methods are safe for concurrent use. Every internal lock is
// released by defer: device accesses panic with nvm.CrashSignal when an
// injection budget fires, and no lock may be leaked across that unwind.
type Allocator struct {
	dev        *nvm.Device
	start, end uint64

	mags   [nClasses]magazine
	shards [nClasses][nShards]classShard
	// tails holds, per class, the uncarved free tails of its segments:
	// what carve cuts the next magRefill blocks from.
	tails [nClasses]classShard
	large [nLarge]largeShard
	stat  [nStripes]stripe

	// seg is the volatile state of each arena segment: segNone (extent
	// territory), segPending (a slab a crash left behind, not scanned
	// yet) or segAdopted (a slab whose free blocks are in the lists).
	// pending lists the unscanned slabs per class in address order and
	// npending counts them; adoptMu orders an adoption scan against a
	// Free into the segment being scanned, the only two writers of a
	// pending segment's state.
	seg      []atomic.Uint32
	adoptMu  sync.Mutex
	pending  [nClasses][]uint32
	npending atomic.Int64

	// held counts threads that have removed a free extent from the
	// shared lists and not yet pushed the pieces back (mid-carve,
	// mid-split, mid-large-fit); heldGen ticks each time such memory
	// becomes visible again. Together they let Alloc distinguish a
	// genuinely exhausted heap from one whose only free extent is
	// briefly in another thread's hands.
	held    atomic.Int64
	heldGen atomic.Uint64
}

// New formats [start, end) of dev as a fresh heap: one big free block.
// start and end must be 8-aligned with end-start >= minBlock.
func New(dev *nvm.Device, start, end uint64) *Allocator {
	if start%8 != 0 || end%8 != 0 || end-start < minBlock {
		panic(fmt.Sprintf("nvalloc: bad arena [%#x,%#x)", start, end))
	}
	a := newAllocator(dev, start, end)
	a.writeHeader(start, end-start, false)
	dev.Fence()
	a.pushLarge(block{start, end - start})
	return a
}

// Attach reconstructs an allocator over an existing heap after a crash,
// the recovery path of the region manager, in one header load per slab
// segment and per extent: a slab head is hopped over whole and its
// segment left pending, an extent is filed or counted and hopped by its
// size. The headers are the sole source of truth — a block that sat in
// a magazine or shard at crash time carries a free header and is found
// again, by this walk or by its segment's adoption scan — so nothing a
// crash strands in volatile caches is ever lost.
func Attach(dev *nvm.Device, start, end uint64) (*Allocator, error) {
	if start%8 != 0 || end%8 != 0 || end-start < minBlock {
		return nil, fmt.Errorf("nvalloc: bad arena [%#x,%#x)", start, end)
	}
	a := newAllocator(dev, start, end)
	var allocated uint64
	for p := start; p < end; {
		h := dev.Load64(p)
		size := blockSize(h)
		c, class := classOfBlock(size)
		if !sizeFits(p, size, end) || (h&slabBit != 0 && ((p-start)%segSize != 0 || !class)) {
			return nil, fmt.Errorf("nvalloc: corrupt header at %#x: %#x", p, h)
		}
		switch {
		case h&slabBit != 0:
			k := (p - start) / segSize
			a.seg[k].Store(segPending)
			a.pending[c] = append(a.pending[c], uint32(k))
			a.npending.Add(1)
			_, lim := a.segBounds(k)
			size = lim - p
		case h&allocBit != 0:
			allocated += size
		case class:
			a.classPush(c, block{p, size})
		default:
			a.pushLarge(block{p, size})
		}
		p += size
	}
	a.stat[0].allocated.Add(int64(allocated))
	return a, nil
}

func newAllocator(dev *nvm.Device, start, end uint64) *Allocator {
	a := &Allocator{dev: dev, start: start, end: end,
		seg: make([]atomic.Uint32, (end-start+segSize-1)/segSize)}
	for i := range a.large {
		a.large[i].free = map[int][]block{}
	}
	return a
}

const (
	segNone = iota
	segPending
	segAdopted
)

// segBounds is the byte range of arena segment k.
func (a *Allocator) segBounds(k uint64) (at, lim uint64) {
	at = a.start + k*segSize
	return at, min(at+segSize, a.end)
}

// writeHeader stores and writes back one header word. The slab bit is a
// function of the address alone — set exactly on the first block of a
// slab segment — so every writer of that block (carve, Alloc's publish,
// Free) keeps it without knowing it is there.
func (a *Allocator) writeHeader(addr, size uint64, allocated bool) {
	h := size << 1
	if allocated {
		h |= allocBit
	}
	if off := addr - a.start; off%segSize == 0 && a.seg[off/segSize].Load() != segNone {
		h |= slabBit
	}
	a.dev.Store64(addr, h)
	a.dev.CLWB(addr)
}

// Alloc returns the byte address of a block with at least n usable
// bytes, the first n of them zeroed, or an error when the heap is
// exhausted. The returned address points just past the block header.
func (a *Allocator) Alloc(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("nvalloc: invalid size %d", n)
	}
	need := uint64(headerSize) + uint64((n+7)&^7)
	if need < minBlock {
		need = minBlock
	}
	// A failed scan is not proof of exhaustion: between takeLarge and
	// the push-back at the end of a carve or split, the heap's only free
	// extent can be privately held by another thread, and a scan that
	// overlaps that window sees an empty allocator. Accept the
	// out-of-memory verdict only when no private hold overlapped the
	// scan (held was zero after it and heldGen never moved across it);
	// otherwise yield and rescan. held must be read before heldGen:
	// release bumps the generation before dropping the hold count, so a
	// hold that ends between the two loads is always caught by one of
	// them. Single-threaded runs take one pass, keeping placement
	// deterministic.
	var b block
	var err error
	for attempt := 0; ; attempt++ {
		gen := a.heldGen.Load()
		if need <= maxSmall {
			b, err = a.allocSmall(classFor(need))
		} else {
			b, err = a.allocLarge(need)
		}
		if err == nil {
			break
		}
		if err != errNoFit {
			return 0, err
		}
		if (a.held.Load() == 0 && a.heldGen.Load() == gen) || attempt >= oomRetries {
			return 0, fmt.Errorf("nvalloc: out of memory (want %d bytes, %d allocated of %d)",
				need, a.allocatedBytes(), a.end-a.start)
		}
		if attempt < spinRetries {
			runtime.Gosched()
		} else {
			d := time.Duration(attempt-spinRetries+1) * time.Microsecond
			if d > time.Millisecond {
				d = time.Millisecond
			}
			time.Sleep(d)
		}
	}
	// Publish: the allocated header must be persistent before the block
	// is handed out. Until this CLWB lands, the block's previous free
	// header — covering exactly this block, the carve/split phases
	// having already retired any wider spanning header — is what a crash
	// scan sees, so a crash here merely forgets an unreturned block.
	a.writeHeader(b.addr, b.size, true)
	a.dev.Fence()
	st := &a.stat[lane()]
	st.allocated.Add(int64(b.size))
	st.allocs.Add(1)
	user := b.addr + headerSize
	// Zero the requested bytes, not the whole block: class rounding can
	// hand a 64-byte request a 128-byte block, and zeroing the rounding
	// slack would double the device traffic of small allocations. Bytes
	// past n are unspecified (no caller reads beyond its request).
	a.dev.Memset64(user, 0, (n+7)/8)
	if tr := a.dev.Tracer(); tr != nil {
		tr.DevEmit(obs.KAlloc, b.addr, b.size)
	}
	return user, nil
}

// errNoFit is a scan of the volatile lists that found no block; Alloc
// decides whether that means out of memory.
var errNoFit = errors.New("nvalloc: no free block fits")

// allocSmall satisfies a class-sized request: magazine, then shards,
// then — after a restart — one pre-crash segment of the class adopted,
// then a carve from the class's segment tail or a fresh segment. Only
// when all of those fail does it adopt every segment left, pull the
// magazines and tails back into the shared lists, retry, and finally
// cut the class out of any extent or bigger block — so a request fails
// only when no free block anywhere can hold it. The only error besides
// errNoFit is a corrupt header met by an adoption scan.
func (a *Allocator) allocSmall(c int) (block, error) {
	if b, ok := a.magPop(c); ok {
		a.stat[lane()].magHits.Add(1)
		return b, nil
	}
	if b, ok := a.classPop(c); ok {
		return b, nil
	}
	if a.npending.Load() > 0 {
		if err := a.adopt(c); err != nil {
			return block{}, err
		}
		if b, ok := a.classPop(c); ok {
			return b, nil
		}
	}
	if b, ok := a.carve(c); ok {
		return b, nil
	}
	if err := a.adopt(-1); err != nil {
		return block{}, err
	}
	a.scavenge()
	if b, ok := a.classPop(c); ok {
		return b, nil
	}
	if b, ok := a.carveAny(c); ok {
		return b, nil
	}
	return block{}, errNoFit
}

// adopt scans pre-crash slab segments into the volatile lists: the
// highest-addressed pending segment of class c (the one its free tail
// is in, if any survives), or every pending segment when c < 0. Each
// segment is scanned once, here, under adoptMu; a scan that meets a
// corrupt header keeps what it filed so far, strands the rest of that
// segment and returns the error.
func (a *Allocator) adopt(c int) error {
	if a.npending.Load() == 0 {
		return nil
	}
	a.adoptMu.Lock()
	defer a.adoptMu.Unlock()
	var first error
	for cc := range a.pending {
		if c >= 0 && cc != c {
			continue
		}
		for n := len(a.pending[cc]); n > 0; n-- {
			k := uint64(a.pending[cc][n-1])
			a.pending[cc] = a.pending[cc][:n-1]
			err := a.scanSegment(cc, k)
			if c >= 0 {
				return err
			}
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// scanSegment walks the headers of pending slab segment k, of class c
// (caller holds adoptMu): allocated blocks are counted, free class
// blocks go to their shards, and a free run big enough to carve from
// becomes a tail of the class again.
func (a *Allocator) scanSegment(c int, k uint64) (err error) {
	at, lim := a.segBounds(k)
	csize := classSize(c)
	var allocated uint64
	for p := at; p < lim; {
		h := a.dev.Load64(p)
		size := blockSize(h)
		if !sizeFits(p, size, lim) || (h&slabBit != 0) != (p == at) {
			err = fmt.Errorf("nvalloc: corrupt header at %#x: %#x", p, h)
			break
		}
		cb, class := classOfBlock(size)
		switch {
		case h&allocBit != 0:
			allocated += size
		case size >= 2*csize:
			a.tails[c].push(block{p, size})
		case class:
			a.classPush(cb, block{p, size})
		default:
			a.pushLarge(block{p, size})
		}
		p += size
	}
	a.stat[0].allocated.Add(int64(allocated))
	a.seg[k].Store(segAdopted)
	a.npending.Add(-1)
	return err
}

// magPop claims a cached block from the class's magazine ring: the
// first non-empty slot in index order, taken with a single Swap.
func (a *Allocator) magPop(c int) (block, bool) {
	m := &a.mags[c]
	for i := range m.w {
		if m.w[i].Load() == 0 {
			continue
		}
		if w := m.w[i].Swap(0); w != 0 {
			return unpackHot(c, w), true
		}
	}
	return block{}, false
}

// magPush parks a free block in the class's magazine ring: the first
// empty slot in index order, won by CompareAndSwap. Returns false when
// the ring is full so the caller falls back to the shards.
func (a *Allocator) magPush(c int, b block) bool {
	m := &a.mags[c]
	packed := packHot(c, b)
	for i := range m.w {
		if m.w[i].Load() != 0 {
			continue
		}
		if m.w[i].CompareAndSwap(0, packed) {
			return true
		}
	}
	return false
}

// classPop takes a block from the class's shard stripes in fixed index
// order: a TryLock pass first (deterministic when uncontended, skips
// stripes another thread holds), then a blocking pass so a block is
// never missed just because its stripe was busy.
func (a *Allocator) classPop(c int) (block, bool) {
	for i := 0; i < nShards; i++ {
		if b, ok, locked := a.shards[c][i].tryPop(); locked {
			if ok {
				return b, true
			}
		}
	}
	for i := 0; i < nShards; i++ {
		if b, ok := a.shards[c][i].pop(); ok {
			return b, true
		}
	}
	return block{}, false
}

// classPush returns a block to its class's stripes; the home stripe is
// a pure function of the block address, keeping placement deterministic
// and spreading load across locks.
func (a *Allocator) classPush(c int, b block) {
	a.shards[c][(b.addr/minBlock)%nShards].push(b)
}

func (s *classShard) tryPop() (b block, ok, locked bool) {
	if !s.mu.TryLock() {
		return block{}, false, false
	}
	defer s.mu.Unlock()
	if len(s.blk) == 0 {
		return block{}, false, true
	}
	b = s.blk[len(s.blk)-1]
	s.blk = s.blk[:len(s.blk)-1]
	return b, true, true
}

func (s *classShard) pop() (block, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blk) == 0 {
		return block{}, false
	}
	b := s.blk[len(s.blk)-1]
	s.blk = s.blk[:len(s.blk)-1]
	return b, true
}

func (s *classShard) push(b block) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blk = append(s.blk, b)
}

// carve refills a size class: it cuts up to magRefill class blocks off
// the free tail of one of the class's segments, opening a fresh segment
// when no tail is left. Persistence discipline (two fence phases): every
// interior header — the remainder's, then the carved blocks' from back
// to front — is written and fenced while the extent's original spanning
// free header still covers them; then block 0's header is shrunk to its
// own free block and fenced, retiring the spanning header, and only
// after that fence does any carved piece enter a globally visible list.
// A crash inside the carve therefore leaves either the untouched
// spanning free block or a fully chained run — and once another thread
// can see (and allocate, and commit into) an interior block, no durable
// header spans it anymore, so a crash can never re-adopt it as free.
func (a *Allocator) carve(c int) (block, bool) {
	a.held.Add(1)
	defer a.held.Add(-1)
	lb, ok := a.tails[c].pop()
	at, lim := lb.addr, lb.addr+lb.size
	if !ok {
		// Open a segment: the first-fit extent with an aligned segment
		// inside it. The carve below splits the segment out and cuts
		// its first blocks in the same two phases.
		csize := classSize(c)
		lb, ok = a.takeLarge(csize, func(b block) bool {
			_, _, fits := a.segFit(b, csize)
			return fits
		})
		if !ok {
			return block{}, false
		}
		at, lim, _ = a.segFit(lb, csize)
		a.seg[(at-a.start)/segSize].Store(segAdopted)
	}
	b := a.carveExtent(c, lb, at, lim)
	a.heldGen.Add(1)
	return b, true
}

// segFit places a slab segment in the free extent b: the first segment
// range [at, lim) wholly inside b that leaves on either side nothing or
// room for a header, and holds at least one block of csize bytes.
func (a *Allocator) segFit(b block, csize uint64) (at, lim uint64, ok bool) {
	at = a.start + (b.addr-a.start+segSize-1)/segSize*segSize
	if pad := at - b.addr; pad > 0 && pad < minBlock {
		at += segSize
	}
	lim = min(at+segSize, a.end)
	end := b.addr + b.size
	return at, lim, at+csize <= lim && lim <= end && (end == lim || end-lim >= minBlock)
}

// carveExtent cuts class-c blocks from [at, lim) of the free extent lb
// (header persistent, owned by the caller); what lb holds before at and
// after lim — nothing, except when a segment is being opened — is split
// off as free extents by the same two phases. See carve for the
// persistence argument.
func (a *Allocator) carveExtent(c int, lb block, at, lim uint64) block {
	csize := classSize(c)
	end := lb.addr + lb.size
	k := min((lim-at)/csize, magRefill)
	rest := lim - at - k*csize
	lastExtra := uint64(0)
	if rest > 0 && rest < minBlock {
		// An 8-byte sliver cannot hold a header; fold it into the
		// last carved block, which is why class lists may carry
		// classSize(c)+8 blocks.
		lastExtra = rest
		rest = 0
	}
	sizeOf := func(i uint64) uint64 {
		if i == k-1 {
			return csize + lastExtra
		}
		return csize
	}
	if rest > 0 || k > 1 || at > lb.addr || end > lim {
		// Phase 1: interior headers, durable under the spanning header.
		if end > lim {
			a.writeHeader(lim, end-lim, false)
		}
		if rest > 0 {
			a.writeHeader(at+k*csize, rest, false)
		}
		for i := k - 1; i >= 1; i-- {
			a.writeHeader(at+i*csize, sizeOf(i), false)
		}
		if at > lb.addr {
			a.writeHeader(at, sizeOf(0), false)
		}
		a.dev.Fence()
		// Phase 2: retire the spanning header. The extent's first piece
		// (block 0, or the run before an opened segment) shrinks to its
		// own free header, so from here on no durable header covers more
		// than one piece — a prerequisite for exposing the pieces below,
		// since a concurrent thread may allocate and commit into one
		// before this carver's caller publishes block 0 as allocated.
		if at > lb.addr {
			a.writeHeader(lb.addr, at-lb.addr, false)
		} else {
			a.writeHeader(at, sizeOf(0), false)
		}
		a.dev.Fence()
	}
	if at > lb.addr {
		a.pushLarge(block{lb.addr, at - lb.addr})
	}
	if end > lim {
		a.pushLarge(block{lim, end - lim})
	}
	if rest >= csize {
		a.tails[c].push(block{at + k*csize, rest})
	} else if rest > 0 {
		a.pushLarge(block{at + k*csize, rest})
	}
	for i := k - 1; i >= 1; i-- {
		b := block{at + i*csize, sizeOf(i)}
		if !a.magPush(c, b) {
			a.classPush(c, b)
		}
	}
	a.stat[lane()].refills.Add(1)
	if tr := a.dev.Tracer(); tr != nil {
		tr.DevEmit(obs.KRefill, csize, k)
	}
	return block{at, sizeOf(0)}
}

// carveAny serves class c once no segment can be opened: from any free
// extent the large path holds (a run too short for a segment, another
// class's tail), else from a block cached by a bigger class, cut up
// exactly like a carve. Without it memory parked outside the class's
// own segments would be unreachable and the allocator could report
// out-of-memory while most of the heap sits free.
func (a *Allocator) carveAny(c int) (block, bool) {
	a.held.Add(1)
	defer a.held.Add(-1)
	lb, ok := a.takeLarge(classSize(c), nil)
	for cc := c + 1; !ok && cc < nClasses; cc++ {
		if lb, ok = a.magPop(cc); !ok {
			lb, ok = a.classPop(cc)
		}
	}
	if !ok {
		return block{}, false
	}
	b := a.carveExtent(c, lb, lb.addr, lb.addr+lb.size)
	a.heldGen.Add(1)
	return b, true
}

// scavenge drains every magazine ring into the shards and every segment
// tail into the large buckets. Only the out-of-memory path calls it; it
// makes cached memory visible to carveAny and allocLarge, which only
// look there.
func (a *Allocator) scavenge() {
	for c := range a.mags {
		m := &a.mags[c]
		for i := range m.w {
			if w := m.w[i].Swap(0); w != 0 {
				a.classPush(c, unpackHot(c, w))
			}
		}
		for b, ok := a.tails[c].pop(); ok; b, ok = a.tails[c].pop() {
			a.pushLarge(b)
		}
	}
}

// allocLarge satisfies a request above maxSmall by first fit over the
// large buckets, splitting off the tail. The split follows the same
// two-phase discipline as carveExtent: the remainder's free header is
// fenced durable, then the head's header is shrunk (free) and fenced to
// retire the spanning header, and only then does the remainder enter
// the shared buckets — so a block another thread allocates out of the
// remainder can never be re-adopted by a crash scan that still sees
// the original extent-spanning free header.
func (a *Allocator) allocLarge(need uint64) (block, error) {
	a.held.Add(1)
	defer a.held.Add(-1)
	lb, ok := a.takeLarge(need, nil)
	if !ok {
		// The extents are spent; a segment tail, adopted or not, may
		// still hold the request.
		if err := a.adopt(-1); err != nil {
			return block{}, err
		}
		a.scavenge()
		if lb, ok = a.takeLarge(need, nil); !ok {
			return block{}, errNoFit
		}
	}
	if lb.size-need >= minBlock {
		rest := block{lb.addr + need, lb.size - need}
		a.writeHeader(rest.addr, rest.size, false)
		a.dev.Fence()
		a.writeHeader(lb.addr, need, false)
		a.dev.Fence()
		a.pushLarge(rest)
		lb.size = need
	}
	a.heldGen.Add(1)
	return lb, nil
}

// takeLarge removes a free extent of at least need bytes that fits
// (any, when fits is nil) from the large buckets, scanning stripes in
// fixed index order.
func (a *Allocator) takeLarge(need uint64, fits func(block) bool) (block, bool) {
	for i := 0; i < nLarge; i++ {
		if b, ok := a.large[i].take(need, fits); ok {
			return b, true
		}
	}
	return block{}, false
}

// pushLarge files a free extent under the stripe its address hashes to,
// a deterministic spread like classPush.
func (a *Allocator) pushLarge(b block) {
	s := &a.large[(b.addr/minBlock)%nLarge]
	s.mu.Lock()
	defer s.mu.Unlock()
	c := sizeClassFloor(b.size)
	s.free[c] = append(s.free[c], b)
}

func (s *largeShard) take(need uint64, fits func(block) bool) (block, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A block of size sz lives in bucket sizeClassFloor(sz); any block
	// with sz >= need lives in bucket >= sizeClassFloor(need), so
	// starting at the floor bucket visits every candidate, smallest
	// buckets (and tightest fits) first.
	for c := sizeClassFloor(need); c < 64; c++ {
		list := s.free[c]
		for i := len(list) - 1; i >= 0; i-- {
			if b := list[i]; b.size >= need && (fits == nil || fits(b)) {
				s.free[c] = append(list[:i], list[i+1:]...)
				return b, true
			}
		}
	}
	return block{}, false
}

// Free returns the block whose user address is addr to the heap. The
// free header is persistent before the block re-enters any volatile
// list, so a crash cannot leave a reused block claiming two owners. A
// block in a segment no scan has adopted yet gets the header and
// nothing else: the scan will find it, so filing it here too would own
// it twice. Freeing the same block twice panics (the second call reads
// a free header), as does freeing an address outside the arena;
// concurrent double frees of one block are a data race and undetected.
func (a *Allocator) Free(addr uint64) {
	blk := addr - headerSize
	if blk < a.start || blk >= a.end {
		panic(fmt.Sprintf("nvalloc: Free(%#x) outside arena", addr))
	}
	h := a.dev.Load64(blk)
	if h&allocBit == 0 {
		panic(fmt.Sprintf("nvalloc: double free at %#x", addr))
	}
	b := block{blk, blockSize(h)}
	k := (blk - a.start) / segSize
	if a.seg[k].Load() != segPending || !a.freePending(k, b) {
		a.writeHeader(blk, b.size, false)
		a.dev.Fence()
		a.stat[lane()].allocated.Add(-int64(b.size))
		if c, ok := classOfBlock(b.size); !ok {
			a.pushLarge(b)
		} else if !a.magPush(c, b) {
			a.classPush(c, b)
		}
	}
	a.stat[lane()].frees.Add(1)
	if tr := a.dev.Tracer(); tr != nil {
		tr.DevEmit(obs.KFree, blk, b.size)
	}
}

// freePending persists b's free header if segment k is still pending,
// under adoptMu so the segment's scan sees the block either allocated
// (and counts it, as this Free then runs on the adopted segment) or
// free. The allocated count does not move: it learns of a segment's
// blocks only when the scan adds them up.
func (a *Allocator) freePending(k uint64, b block) bool {
	a.adoptMu.Lock()
	defer a.adoptMu.Unlock()
	if a.seg[k].Load() != segPending {
		return false
	}
	a.writeHeader(b.addr, b.size, false)
	a.dev.Fence()
	return true
}

// BlockSize reports the usable byte count of the block at user address addr.
func (a *Allocator) BlockSize(addr uint64) int {
	return int(blockSize(a.dev.Load64(addr-headerSize))) - headerSize
}

// sizeClassFloor buckets a free extent by the largest request it can serve.
func sizeClassFloor(size uint64) int {
	return bits.Len64(size/minBlock) - 1
}

// Stats reports allocator counters.
type Stats struct {
	AllocatedBytes uint64
	ArenaBytes     uint64
	Allocs, Frees  uint64
	// Refills counts magazine refill carves from the large path; MagHits
	// counts Allocs served straight from a magazine ring. MagHits/Allocs
	// is the fraction of allocations that touched no lock.
	Refills, MagHits uint64
}

func (a *Allocator) allocatedBytes() uint64 {
	var total int64
	for i := range a.stat {
		total += a.stat[i].allocated.Load()
	}
	return uint64(total)
}

// Stats returns a snapshot of allocation counters, after adopting the
// segments a restart left pending so AllocatedBytes is exact (a corrupt
// header met on the way is CheckInvariants' to report). The lanes are
// summed without a lock; concurrent callers get a consistent view only
// of a quiescent heap.
func (a *Allocator) Stats() Stats {
	_ = a.adopt(-1)
	s := Stats{ArenaBytes: a.end - a.start, AllocatedBytes: a.allocatedBytes()}
	for i := range a.stat {
		s.Allocs += a.stat[i].allocs.Load()
		s.Frees += a.stat[i].frees.Load()
		s.Refills += a.stat[i].refills.Load()
		s.MagHits += a.stat[i].magHits.Load()
	}
	return s
}

// CheckInvariants walks the heap verifying header chaining and segment
// structure, and that the allocated count matches the walk; used by
// tests and audits, not by the restart path. It returns an error
// describing the first inconsistency found. Call it on a quiescent heap
// that has not unwound from an injected crash — after a crash the
// recovery path is Attach.
func (a *Allocator) CheckInvariants() error { return a.Audit(nil) }

// Audit is CheckInvariants handing visit, when non-nil, every allocated
// block (header address and size) in address order: what a leak audit
// holds against the blocks the application can still reach.
func (a *Allocator) Audit(visit func(blk, size uint64)) error {
	if err := a.adopt(-1); err != nil {
		return err
	}
	var total, lim uint64 // lim: end of the slab segment p is in
	for p := a.start; p < a.end; {
		h := a.dev.Load64(p)
		size := blockSize(h)
		if !sizeFits(p, size, a.end) {
			return fmt.Errorf("bad header at %#x: %#x", p, h)
		}
		head := false
		if off := p - a.start; off%segSize == 0 && a.seg[off/segSize].Load() != segNone {
			_, lim = a.segBounds(off / segSize)
			head = true
		}
		if head != (h&slabBit != 0) || (p < lim && p+size > lim) {
			return fmt.Errorf("bad segment structure at %#x: %#x", p, h)
		}
		if h&allocBit != 0 {
			total += size
			if visit != nil {
				visit(p, size)
			}
		}
		p += size
	}
	if counted := a.allocatedBytes(); total != counted {
		return fmt.Errorf("allocated bytes drifted: walked %d, counted %d", total, counted)
	}
	return nil
}
