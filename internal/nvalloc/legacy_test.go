package nvalloc

import (
	"fmt"
	"sync"

	"github.com/ido-nvm/ido/internal/nvm"
)

// MutexAllocator is the original single-lock allocator: one sync.Mutex
// over one set of size-bucketed first-fit free lists, attached by a walk
// of every block header. It reads the Allocator's persistent format
// (ignoring the slab bit: to it the heap is one flat run of blocks) and
// is kept, in the test binary only, as the full-walk oracle of the
// crash sweeps and the baseline of the benchmark pairs. It must not
// Alloc or Free on a heap the Allocator has carved: its header writes
// would drop the slab bits.
type MutexAllocator struct {
	dev        *nvm.Device
	start, end uint64

	mu   sync.Mutex
	free map[int][]uint64 // size class (log2 bucket) -> block addrs

	allocated uint64
	nAlloc    uint64
	nFree     uint64
}

// NewMutex formats [start, end) of dev as a fresh heap: one big free
// block. start and end must be 8-aligned with end-start >= minBlock.
func NewMutex(dev *nvm.Device, start, end uint64) *MutexAllocator {
	if start%8 != 0 || end%8 != 0 || end-start < minBlock {
		panic(fmt.Sprintf("nvalloc: bad arena [%#x,%#x)", start, end))
	}
	a := &MutexAllocator{dev: dev, start: start, end: end, free: map[int][]uint64{}}
	a.writeHeader(start, end-start, false)
	dev.Fence()
	a.pushFree(start, end-start)
	return a
}

// AttachMutex reconstructs a MutexAllocator over an existing heap after a
// crash by scanning block headers.
func AttachMutex(dev *nvm.Device, start, end uint64) (*MutexAllocator, error) {
	if start%8 != 0 || end%8 != 0 || end-start < minBlock {
		return nil, fmt.Errorf("nvalloc: bad arena [%#x,%#x)", start, end)
	}
	a := &MutexAllocator{dev: dev, start: start, end: end, free: map[int][]uint64{}}
	for p := start; p < end; {
		h := dev.Load64(p)
		size := blockSize(h)
		if size < minBlock || p+size > end || size%8 != 0 {
			return nil, fmt.Errorf("nvalloc: corrupt header at %#x: %#x", p, h)
		}
		if h&allocBit == 0 {
			a.pushFree(p, size)
		} else {
			a.allocated += size
		}
		p += size
	}
	return a, nil
}

func (a *MutexAllocator) pushFree(addr, size uint64) {
	c := sizeClassFloor(size)
	a.free[c] = append(a.free[c], addr)
}

func (a *MutexAllocator) writeHeader(addr, size uint64, allocated bool) {
	h := size << 1
	if allocated {
		h |= allocBit
	}
	a.dev.Store64(addr, h)
	a.dev.CLWB(addr)
}

// Alloc returns the byte address of a zeroed block with at least n usable
// bytes, or an error when the heap is exhausted.
func (a *MutexAllocator) Alloc(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("nvalloc: invalid size %d", n)
	}
	need := uint64(headerSize) + uint64((n+7)&^7)
	if need < minBlock {
		need = minBlock
	}
	addr, size, err := a.allocBlock(need)
	if err != nil {
		return 0, err
	}
	user := addr + headerSize
	a.dev.Memset64(user, 0, int(size-headerSize)/8)
	return user, nil
}

// allocBlock carves an allocated block of at least need bytes under the
// heap lock. The unlock must be deferred: the device accesses inside the
// critical section panic with nvm.CrashSignal when an armed injection
// budget fires, and the mutex cannot stay held across that unwind.
func (a *MutexAllocator) allocBlock(need uint64) (addr, size uint64, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var ok bool
	addr, size, ok = a.takeLocked(need)
	if !ok {
		return 0, 0, fmt.Errorf("nvalloc: out of memory (want %d bytes, %d allocated of %d)",
			need, a.allocated, a.end-a.start)
	}
	// Split when the remainder can hold a block.
	if size-need >= minBlock {
		rest := addr + need
		a.writeHeader(rest, size-need, false)
		a.pushFree(rest, size-need)
		size = need
	}
	a.writeHeader(addr, size, true)
	a.dev.Fence()
	a.allocated += size
	a.nAlloc++
	return addr, size, nil
}

func (a *MutexAllocator) takeLocked(need uint64) (addr, size uint64, ok bool) {
	// A block of size s lives in class sizeClassFloor(s); any block with
	// s >= need therefore lives in class >= sizeClassFloor(need), so
	// starting at the floor class visits every candidate, smallest
	// classes (and exact fits) first.
	for c := sizeClassFloor(need); c < 64; c++ {
		list := a.free[c]
		for i := len(list) - 1; i >= 0; i-- {
			p := list[i]
			s := blockSize(a.dev.Load64(p))
			if s >= need {
				a.free[c] = append(list[:i], list[i+1:]...)
				return p, s, true
			}
		}
	}
	return 0, 0, false
}

// Free returns the block whose user address is addr to the heap.
func (a *MutexAllocator) Free(addr uint64) {
	blk := addr - headerSize
	if blk < a.start || blk >= a.end {
		panic(fmt.Sprintf("nvalloc: Free(%#x) outside arena", addr))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	h := a.dev.Load64(blk)
	if h&allocBit == 0 {
		panic(fmt.Sprintf("nvalloc: double free at %#x", addr))
	}
	size := blockSize(h)
	a.writeHeader(blk, size, false)
	a.dev.Fence()
	a.allocated -= size
	a.nFree++
	a.pushFree(blk, size)
}

// BlockSize reports the usable byte count of the block at user address addr.
func (a *MutexAllocator) BlockSize(addr uint64) int {
	h := a.dev.Load64(addr - headerSize)
	return int(blockSize(h)) - headerSize
}

// Stats returns a snapshot of allocation counters.
func (a *MutexAllocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		AllocatedBytes: a.allocated,
		ArenaBytes:     a.end - a.start,
		Allocs:         a.nAlloc,
		Frees:          a.nFree,
	}
}

// CheckInvariants walks the heap verifying header chaining; it returns an
// error describing the first inconsistency found.
func (a *MutexAllocator) CheckInvariants() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total uint64
	for p := a.start; p < a.end; {
		h := a.dev.Load64(p)
		size := blockSize(h)
		if size < minBlock || size%8 != 0 || p+size > a.end {
			return fmt.Errorf("bad header at %#x: %#x", p, h)
		}
		if h&allocBit != 0 {
			total += size
		}
		p += size
	}
	if total != a.allocated {
		return fmt.Errorf("allocated bytes drifted: walked %d, counted %d", total, a.allocated)
	}
	return nil
}
