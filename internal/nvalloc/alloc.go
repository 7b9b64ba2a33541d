// Package nvalloc implements an nv_malloc/nv_free style allocator over a
// range of a simulated NVM device, in the spirit of the Atlas region
// manager that iDO reuses (§IV-C). Block headers live in NVM and are
// persisted eagerly, so a post-crash scan can always rebuild the volatile
// free lists; the free lists themselves are transient.
//
// The volatile side is one mutex over plain slices: a LIFO free list per
// power-of-two size class (16 B .. 4 KiB), the uncarved tails of each
// class's segments, first-fit buckets for everything above the largest
// class, and the segments a restart left unscanned. Every list change —
// a pop, a push, a carve, a large split, an adoption scan — runs under
// that lock, so a free block is always in some list and a failed search
// is a real out-of-memory. The header write and fence that publish an
// Alloc or a Free run outside it.
//
// Determinism contract: a single-threaded sequence of Alloc/Free calls
// against identical heaps produces identical addresses and identical
// device traffic. Every placement decision is a function of block
// addresses and the call sequence (LIFO lists, bucket scans in fixed
// order) — never of goroutine identity or stack layout. The
// engine-equivalence suites (decoded VM vs tree-walker, native vs VM)
// rely on this to compare runs word-for-word.
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
	"sync"
	"sync/atomic"

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
	// The largest class (4 KiB) bounds the class lists; bigger blocks
	// take the first-fit path.
	nClasses = 9
	maxSmall = minBlock << (nClasses - 1)

	// refill is the number of class blocks one carve cuts.
	refill = 16
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

// Allocator hands out word-aligned blocks from [start, end) on a device.
// All methods are safe for concurrent use. mu is released by defer:
// device accesses under it panic with nvm.CrashSignal when an injection
// budget fires, and the lock may not be leaked across that unwind.
type Allocator struct {
	dev        *nvm.Device
	start, end uint64

	// mu guards every list below and npending.
	mu sync.Mutex
	// free is each class's LIFO list of free blocks.
	free [nClasses][]block
	// tails holds, per class, the uncarved free tails of its segments:
	// what carve cuts the next refill blocks from.
	tails [nClasses][]block
	// large holds the free extents, bucketed by sizeClassFloor.
	large [64][]block
	// pending lists the slabs a crash left behind and no scan has
	// adopted yet, per class in address order; npending counts them.
	pending  [nClasses][]uint32
	npending int

	// seg is the state of each arena segment: segNone (extent
	// territory), segPending or segAdopted. Once Attach returns it
	// changes only under mu, but it is read without it (writeHeader,
	// Free's pending check).
	seg []atomic.Uint32

	// allocated is signed: Attach and adoption scans add a segment's
	// blocks only when they read them, after Frees may have run.
	allocated                       atomic.Int64
	allocs, frees, refills, magHits atomic.Uint64
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
// a free list at crash time carries a free header and is found again,
// by this walk or by its segment's adoption scan — so nothing a crash
// strands in volatile lists is ever lost.
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
			a.npending++
			_, lim := a.segBounds(k)
			size = lim - p
		case h&allocBit != 0:
			allocated += size
		default:
			a.file(block{p, size})
		}
		p += size
	}
	a.allocated.Add(int64(allocated))
	return a, nil
}

func newAllocator(dev *nvm.Device, start, end uint64) *Allocator {
	return &Allocator{dev: dev, start: start, end: end,
		seg: make([]atomic.Uint32, (end-start+segSize-1)/segSize)}
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
	b, err := a.take(need)
	if err == errNoFit {
		return 0, fmt.Errorf("nvalloc: out of memory (want %d bytes, %d allocated of %d)",
			need, a.allocated.Load(), a.end-a.start)
	}
	if err != nil {
		return 0, err
	}
	// Publish: the allocated header must be persistent before the block
	// is handed out. Until this CLWB lands, the block's previous free
	// header — covering exactly this block, the carve/split phases
	// having already retired any wider spanning header — is what a crash
	// scan sees, so a crash here merely forgets an unreturned block.
	a.writeHeader(b.addr, b.size, true)
	a.dev.Fence()
	a.allocated.Add(int64(b.size))
	a.allocs.Add(1)
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

// errNoFit is a search of the lists that found no block: since every
// free block is always in a list, the heap is out of memory.
var errNoFit = errors.New("nvalloc: no free block fits")

// take removes a free block of at least need bytes from the lists.
func (a *Allocator) take(need uint64) (block, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if need <= maxSmall {
		return a.allocSmall(classFor(need))
	}
	return a.allocLarge(need)
}

// allocSmall satisfies a class-sized request (caller holds mu): the
// class's free list, then — after a restart — one pre-crash segment of
// the class adopted, then a carve from the class's segment tail or a
// fresh segment. Only when all of those fail does it adopt every segment
// left, hand the tails to the extent buckets, retry, and finally cut the
// class out of any extent or bigger block — so a request fails only when
// no free block anywhere can hold it. The only error besides errNoFit is
// a corrupt header met by an adoption scan.
func (a *Allocator) allocSmall(c int) (block, error) {
	if b, ok := a.pop(c); ok {
		a.magHits.Add(1)
		return b, nil
	}
	if len(a.pending[c]) > 0 {
		if err := a.adopt(c); err != nil {
			return block{}, err
		}
		if b, ok := a.pop(c); ok {
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
	if b, ok := a.pop(c); ok {
		return b, nil
	}
	if b, ok := a.carveAny(c); ok {
		return b, nil
	}
	return block{}, errNoFit
}

// pop takes the most recently filed block off class c's free list.
func (a *Allocator) pop(c int) (block, bool) {
	l := a.free[c]
	if len(l) == 0 {
		return block{}, false
	}
	a.free[c] = l[:len(l)-1]
	return l[len(l)-1], true
}

// file puts a free block on its class's list, or in the extent buckets
// when its size is no class's.
func (a *Allocator) file(b block) {
	if c, ok := classOfBlock(b.size); ok {
		a.free[c] = append(a.free[c], b)
	} else {
		a.pushLarge(b)
	}
}

// adopt scans pre-crash slab segments into the lists (caller holds mu):
// the highest-addressed pending segment of class c (the one its free
// tail is in, if any survives), or every pending segment when c < 0. A
// scan that meets a corrupt header keeps what it filed so far, strands
// the rest of that segment and returns the error.
func (a *Allocator) adopt(c int) error {
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

// adoptAll adopts every pending segment.
func (a *Allocator) adoptAll() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.adopt(-1)
}

// scanSegment walks the headers of pending slab segment k, of class c
// (caller holds mu): allocated blocks are counted, free class blocks are
// filed, and a free run big enough to carve from becomes a tail of the
// class again.
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
		switch {
		case h&allocBit != 0:
			allocated += size
		case size >= 2*csize:
			a.tails[c] = append(a.tails[c], block{p, size})
		default:
			a.file(block{p, size})
		}
		p += size
	}
	a.allocated.Add(int64(allocated))
	a.seg[k].Store(segAdopted)
	a.npending--
	return err
}

// carve refills a size class (caller holds mu): it cuts up to refill
// class blocks off the free tail of one of the class's segments, opening
// a fresh segment when no tail is left. Persistence discipline (two
// fence phases): every interior header — the remainder's, then the
// carved blocks' from back to front — is written and fenced while the
// extent's original spanning free header still covers them; then block
// 0's header is shrunk to its own free block and fenced, retiring the
// spanning header, and only after that fence does any carved piece
// enter a list. A crash inside the carve therefore leaves either the
// untouched spanning free block or a fully chained run — and once
// another thread can pop (and allocate, and commit into) an interior
// block, no durable header spans it anymore, so a crash can never
// re-adopt it as free.
func (a *Allocator) carve(c int) (block, bool) {
	var lb block
	var at, lim uint64
	if n := len(a.tails[c]); n > 0 {
		lb = a.tails[c][n-1]
		a.tails[c] = a.tails[c][:n-1]
		at, lim = lb.addr, lb.addr+lb.size
	} else {
		// Open a segment: the first-fit extent with an aligned segment
		// inside it. The carve below splits the segment out and cuts
		// its first blocks in the same two phases.
		csize := classSize(c)
		var ok bool
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
	return a.carveExtent(c, lb, at, lim), true
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
// persistence argument. Blocks 1..k-1 are filed so that k-1 pops first.
func (a *Allocator) carveExtent(c int, lb block, at, lim uint64) block {
	csize := classSize(c)
	end := lb.addr + lb.size
	k := min((lim-at)/csize, refill)
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
		// than one piece — a prerequisite for filing the pieces below,
		// since another thread may allocate and commit into one before
		// this carver's caller publishes block 0 as allocated.
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
		a.tails[c] = append(a.tails[c], block{at + k*csize, rest})
	} else if rest > 0 {
		a.pushLarge(block{at + k*csize, rest})
	}
	for i := uint64(1); i < k; i++ {
		a.free[c] = append(a.free[c], block{at + i*csize, sizeOf(i)})
	}
	a.refills.Add(1)
	if tr := a.dev.Tracer(); tr != nil {
		tr.DevEmit(obs.KRefill, csize, k)
	}
	return block{at, sizeOf(0)}
}

// carveAny serves class c once no segment can be opened (caller holds
// mu): from any free extent (a run too short for a segment, another
// class's tail), else from a free block of a bigger class, cut up
// exactly like a carve. Without it memory parked outside the class's
// own segments would be unreachable and the allocator could report
// out-of-memory while most of the heap sits free.
func (a *Allocator) carveAny(c int) (block, bool) {
	lb, ok := a.takeLarge(classSize(c), nil)
	for cc := c + 1; !ok && cc < nClasses; cc++ {
		lb, ok = a.pop(cc)
	}
	if !ok {
		return block{}, false
	}
	return a.carveExtent(c, lb, lb.addr, lb.addr+lb.size), true
}

// scavenge hands every segment tail to the extent buckets (caller holds
// mu). Only the out-of-memory path calls it; it makes the tails visible
// to carveAny and allocLarge, which only look there.
func (a *Allocator) scavenge() {
	for c := range a.tails {
		for _, b := range a.tails[c] {
			a.pushLarge(b)
		}
		a.tails[c] = a.tails[c][:0]
	}
}

// allocLarge satisfies a request above maxSmall by first fit over the
// extent buckets, splitting off the tail (caller holds mu). The split
// follows the same two-phase discipline as carveExtent: the remainder's
// free header is fenced durable, then the head's header is shrunk (free)
// and fenced to retire the spanning header, and only then is the
// remainder filed — so a block another thread allocates out of the
// remainder can never be re-adopted by a crash scan that still sees the
// original extent-spanning free header.
func (a *Allocator) allocLarge(need uint64) (block, error) {
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
	return lb, nil
}

// takeLarge removes a free extent of at least need bytes that fits
// (any, when fits is nil) from the buckets. A block of size sz lives in
// bucket sizeClassFloor(sz); any block with sz >= need lives in bucket
// >= sizeClassFloor(need), so starting at the floor bucket visits every
// candidate, smallest buckets (and tightest fits) first.
func (a *Allocator) takeLarge(need uint64, fits func(block) bool) (block, bool) {
	for c := sizeClassFloor(need); c < len(a.large); c++ {
		list := a.large[c]
		for i := len(list) - 1; i >= 0; i-- {
			if b := list[i]; b.size >= need && (fits == nil || fits(b)) {
				a.large[c] = append(list[:i], list[i+1:]...)
				return b, true
			}
		}
	}
	return block{}, false
}

// pushLarge files a free extent in its bucket.
func (a *Allocator) pushLarge(b block) {
	c := sizeClassFloor(b.size)
	a.large[c] = append(a.large[c], b)
}

// Free returns the block whose user address is addr to the heap. The
// free header is persistent before the block re-enters any list, so a
// crash cannot leave a reused block claiming two owners. A block in a
// segment no scan has adopted yet gets the header and nothing else: the
// scan will find it, so filing it here too would own it twice. Freeing
// the same block twice panics (the second call reads a free header), as
// does freeing an address outside the arena; concurrent double frees of
// one block are a data race and undetected.
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
		a.allocated.Add(-int64(b.size))
		a.put(b)
	}
	a.frees.Add(1)
	if tr := a.dev.Tracer(); tr != nil {
		tr.DevEmit(obs.KFree, blk, b.size)
	}
}

// put files a freed block under the lock.
func (a *Allocator) put(b block) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.file(b)
}

// freePending persists b's free header if segment k is still pending,
// under mu so the segment's scan sees the block either allocated (and
// counts it, as this Free then runs on the adopted segment) or free.
// The allocated count does not move: it learns of a segment's blocks
// only when the scan adds them up.
func (a *Allocator) freePending(k uint64, b block) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	// Refills counts carves; MagHits counts Allocs served straight off
	// their class's free list, so MagHits/Allocs is the share of
	// allocations that neither carved nor scanned.
	Refills, MagHits uint64
}

// Stats returns a snapshot of allocation counters, after adopting the
// segments a restart left pending so AllocatedBytes is exact (a corrupt
// header met on the way is CheckInvariants' to report). The counters
// are read one by one; concurrent callers get a consistent view only of
// a quiescent heap.
func (a *Allocator) Stats() Stats {
	_ = a.adoptAll()
	return Stats{
		AllocatedBytes: uint64(a.allocated.Load()),
		ArenaBytes:     a.end - a.start,
		Allocs:         a.allocs.Load(),
		Frees:          a.frees.Load(),
		Refills:        a.refills.Load(),
		MagHits:        a.magHits.Load(),
	}
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
	if err := a.adoptAll(); err != nil {
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
	if counted := uint64(a.allocated.Load()); total != counted {
		return fmt.Errorf("allocated bytes drifted: walked %d, counted %d", total, counted)
	}
	return nil
}
