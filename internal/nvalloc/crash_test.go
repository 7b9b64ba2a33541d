package nvalloc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/ido-nvm/ido/internal/nvm"
)

// sweepArena holds a segment for each of the workload's size classes
// and room between them for its large block.
const sweepArena = 8 * segSize

// sweepState tracks the blocks the workload has committed: an address is
// added once Alloc has returned it and removed before Free is called, so
// at any crash point the set holds exactly the blocks whose allocated
// headers were fenced durable and that no Free has begun to release.
// (The op in flight at the crash is deliberately absent: a published but
// never-returned block is a crash-time leak, and a block whose free
// header just landed may legitimately be reused after recovery.)
type sweepState struct {
	live map[uint64]int // user addr -> requested bytes
}

func (st *sweepState) alloc(a *Allocator, n int) uint64 {
	p, err := a.Alloc(n)
	if err != nil {
		panic(err)
	}
	st.live[p] = n
	return p
}

func (st *sweepState) free(a *Allocator, p uint64) {
	delete(st.live, p)
	a.Free(p)
}

// sweepWork drives every allocator path that touches the device. Before
// the restart: segment openings (one per size class), carves from a
// segment tail, free-list reuse, the large first-fit path, and frees of
// each. Then a restart with half the blocks still live —
// Attach's hop over the segment and extent heads — and after it: frees
// of pre-crash blocks into segments no scan has adopted, allocations
// that adopt those segments lazily, a fresh segment opened beside them,
// and the adopt-everything walk behind Stats.
func sweepWork(d *nvm.Device, a *Allocator, st *sweepState) {
	var order []uint64
	for i := 0; i < 12; i++ {
		order = append(order, st.alloc(a, 16+i*24)) // spans five size classes
	}
	for i := 0; i < len(order); i += 2 {
		st.free(a, order[i])
	}
	for i := 0; i < 6; i++ { // free-list round-trips
		st.free(a, st.alloc(a, 40))
	}
	for i := 0; i < 2*refill; i++ { // past one refill: a carve from the segment's tail
		order = append(order, st.alloc(a, 40))
	}
	st.free(a, st.alloc(a, 5000)) // above maxSmall: large path

	d.Crash(nvm.CrashDiscard, nil)
	a, err := Attach(d, 0, sweepArena)
	if err != nil {
		panic(err)
	}
	st.free(a, order[1])  // into unadopted segments
	st.free(a, order[12]) //
	for i := 0; i < 3; i++ {
		order = append(order, st.alloc(a, 40)) // adopts the 64-byte class's segment
	}
	st.free(a, order[13])                    // into the segment just adopted
	order = append(order, st.alloc(a, 1000)) // a class the heap has no segment of
	order = append(order, st.alloc(a, 5000)) // large path beside pending segments
	for i := 3; i < len(order); i += 2 {
		if _, ok := st.live[order[i]]; ok {
			st.free(a, order[i])
		}
	}
	a.Stats() // adopts every segment still pending
	for _, p := range order {
		if _, ok := st.live[p]; ok {
			st.free(a, p)
		}
	}
}

// runSweep runs sweepWork on a fresh heap under a crash budget and
// reports the device events it got through and whether the budget fired.
func runSweep(budget int64) (d *nvm.Device, st *sweepState, events int64, crashed bool) {
	d = nvm.New(nvm.Config{Size: sweepArena})
	a := New(d, 0, sweepArena)
	st = &sweepState{live: map[uint64]int{}}
	d.ArmLocalCrash(budget)
	defer d.ArmLocalCrash(-1)
	defer func() {
		events = budget - d.LocalCrashBudgetRemaining()
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	sweepWork(d, a, st)
	return d, st, 0, false
}

// checkLive verifies every committed block still carries an allocated
// header of at least its requested size.
func checkLive(t *testing.T, d *nvm.Device, st *sweepState, at string) {
	t.Helper()
	for p, n := range st.live {
		h := d.Load64(p - headerSize)
		if h&allocBit == 0 {
			t.Fatalf("%s: committed block %#x lost its allocated header", at, p)
		}
		if got := int(blockSize(h)) - headerSize; got < n {
			t.Fatalf("%s: committed block %#x shrank: %d < %d", at, p, got, n)
		}
	}
}

// leakedBytes is the crash-time leak of a recovered heap: allocated
// blocks the workload does not hold. An operation in flight at the
// crash leaks at most its one block (an Alloc published and never
// returned, or a Free begun and never made durable), and the recovered
// allocator's exact count must be the held blocks plus that one.
func leakedBytes(t *testing.T, a *Allocator, st *sweepState, at string) uint64 {
	t.Helper()
	var live, leaked uint64
	blocks := 0
	err := a.Audit(func(blk, size uint64) {
		if _, ok := st.live[blk+headerSize]; ok {
			live += size
		} else {
			leaked += size
			blocks++
		}
	})
	if err != nil {
		t.Fatalf("%s: invariants after crash: %v", at, err)
	}
	if blocks > 1 {
		t.Fatalf("%s: %d blocks (%d bytes) leaked by one crash", at, blocks, leaked)
	}
	if got := a.Stats().AllocatedBytes; got != live+leaked {
		t.Fatalf("%s: %d bytes allocated, want %d held + %d leaked", at, got, live, leaked)
	}
	return leaked
}

// TestAllocCrashSweepRecovers kills the device at every event inside the
// workload — each header write, flush, fence, and zeroing store in
// Alloc, Free, the refill carve and the segment opening, each
// header load of Attach's hop and of a lazy adoption scan, each event of
// a Free into a segment not adopted yet — then settles the persistence
// domain and proves recovery: Attach succeeds, the header chain is
// consistent, every committed-live block survived, the allocated count
// is the committed blocks plus at most the one block the crash leaked,
// and nothing the recovered allocator hands out overlaps one. A
// MutexAllocator attach of the same heap, walking every header, cross-
// checks that segments and hopping never bent the flat persistent format.
func TestAllocCrashSweepRecovers(t *testing.T) {
	crashes, leaks, maxLeak := 0, 0, uint64(0)
	for budget := int64(1); ; budget++ {
		d, st, _, crashed := runSweep(budget)
		if !crashed {
			if budget == 1 {
				t.Fatal("budget 1 did not crash: injection is not reaching the allocator")
			}
			break // budget outlasted the whole workload: every point swept
		}
		crashes++
		d.Crash(nvm.CrashDiscard, nil)

		a2, err := Attach(d, 0, sweepArena)
		if err != nil {
			t.Fatalf("budget %d: Attach after crash: %v", budget, err)
		}
		at := fmt.Sprintf("budget %d", budget)
		checkLive(t, d, st, at)
		if l := leakedBytes(t, a2, st, at); l > 0 {
			leaks++
			maxLeak = max(maxLeak, l)
		}
		// The recovered allocator must never double-own a committed block.
		for i := 0; i < 64; i++ {
			p, err := a2.Alloc(32)
			if err != nil {
				break
			}
			end := p + uint64(a2.BlockSize(p))
			for q, n := range st.live {
				if p < q+uint64(n) && q < end {
					t.Fatalf("budget %d: recovered Alloc returned [%#x,%#x) overlapping live block %#x",
						budget, p, end, q)
				}
			}
		}
		if m, err := AttachMutex(d, 0, sweepArena); err != nil {
			t.Fatalf("budget %d: AttachMutex cross-check: %v", budget, err)
		} else if err := m.CheckInvariants(); err != nil {
			t.Fatalf("budget %d: MutexAllocator sees a different heap: %v", budget, err)
		}
	}
	if crashes == 0 {
		t.Fatal("sweep never crashed")
	}
	t.Logf("swept %d crash points; %d leaked a block (largest %d bytes)", crashes, leaks, maxLeak)
}

// TestCarveRetiresSpanningHeader pins the two-phase carve discipline:
// once a carved piece is in a free list, no durable free header may
// span it. It drives the race window by hand — carve an extent but
// never publish block 0 (the carver "stalls"), let a second allocation
// claim a carved piece and publish it, then crash. If the carve had
// filed pieces while the extent's spanning free header was still
// authoritative, the scan would re-adopt the whole extent and hand the
// committed block out again.
func TestCarveRetiresSpanningHeader(t *testing.T) {
	const arena = 1 << 16
	d := nvm.New(nvm.Config{Size: arena})
	a := New(d, 0, arena)
	// The carver: takes the whole-arena extent, files the interior
	// blocks, returns block 0 — whose allocated header is deliberately
	// never published.
	a.mu.Lock()
	_, ok := a.carve(0)
	a.mu.Unlock()
	if !ok {
		t.Fatal("carve failed on a fresh heap")
	}
	// The racing thread: claims a carved interior block and commits it
	// (allocated header fenced durable), exactly what Alloc does.
	a.mu.Lock()
	vb, ok := a.pop(0)
	a.mu.Unlock()
	if !ok {
		t.Fatal("carve filed nothing in the free list")
	}
	a.writeHeader(vb.addr, vb.size, true)
	d.Fence()
	d.Crash(nvm.CrashDiscard, nil)

	a2, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatalf("Attach after mid-carve crash: %v", err)
	}
	if err := a2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after mid-carve crash: %v", err)
	}
	if h := d.Load64(vb.addr); h&allocBit == 0 {
		t.Fatalf("committed block %#x lost its allocated header", vb.addr)
	}
	for i := 0; i < arena/minBlock; i++ {
		p, err := a2.Alloc(16)
		if err != nil {
			break
		}
		end := p - headerSize + uint64(a2.BlockSize(p)) + headerSize
		if p-headerSize < vb.addr+vb.size && vb.addr < end {
			t.Fatalf("recovered Alloc returned [%#x,%#x) overlapping committed block [%#x,%#x)",
				p-headerSize, end, vb.addr, vb.addr+vb.size)
		}
	}
}

// TestLargeSplitRetiresSpanningHeader is the same pin for the large
// path's tail split: the remainder pushed back by allocLarge must not
// be covered by the head's old spanning free header once another
// thread can allocate (and commit) out of it.
func TestLargeSplitRetiresSpanningHeader(t *testing.T) {
	const arena = 1 << 16
	d := nvm.New(nvm.Config{Size: arena})
	a := New(d, 0, arena)
	// The splitter: takes the whole-arena extent, files the remainder,
	// stalls before publishing the head's allocated header.
	a.mu.Lock()
	_, err := a.allocLarge(8192)
	a.mu.Unlock()
	if err != nil {
		t.Fatalf("allocLarge failed on a fresh heap: %v", err)
	}
	// The racing thread: a full Alloc out of the remainder, committed.
	p, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc from remainder: %v", err)
	}
	blk := p - headerSize
	blkEnd := blk + uint64(a.BlockSize(p)) + headerSize
	d.Crash(nvm.CrashDiscard, nil)

	a2, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatalf("Attach after mid-split crash: %v", err)
	}
	if err := a2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after mid-split crash: %v", err)
	}
	if h := d.Load64(blk); h&allocBit == 0 {
		t.Fatalf("committed block %#x lost its allocated header", blk)
	}
	for i := 0; i < arena/minBlock; i++ {
		q, err := a2.Alloc(16)
		if err != nil {
			break
		}
		qEnd := q - headerSize + uint64(a2.BlockSize(q)) + headerSize
		if q-headerSize < blkEnd && blk < qEnd {
			t.Fatalf("recovered Alloc returned [%#x,%#x) overlapping committed block [%#x,%#x)",
				q-headerSize, qEnd, blk, blkEnd)
		}
	}
}

// TestAllocHammer16 runs 16 goroutines of mixed Alloc/Free against one
// heap — far more callers than any workload puts on one lock — then
// checks the header chain and counters balance exactly. Run with -race
// this doubles as the allocator's data-race certification.
func TestAllocHammer16(t *testing.T) {
	const (
		arena   = 1 << 22
		workers = 16
		ops     = 3000
	)
	d := nvm.New(nvm.Config{Size: arena})
	a := New(d, 0, arena)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			ring := make([]uint64, 0, 32)
			for i := 0; i < ops; i++ {
				if len(ring) == cap(ring) || (len(ring) > 0 && r.Intn(3) == 0) {
					j := r.Intn(len(ring))
					a.Free(ring[j])
					ring[j] = ring[len(ring)-1]
					ring = ring[:len(ring)-1]
				} else {
					p, err := a.Alloc(16 + r.Intn(240))
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					ring = append(ring, p)
				}
			}
			for _, p := range ring {
				a.Free(p)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.Allocs != s.Frees || s.AllocatedBytes != 0 {
		t.Fatalf("unbalanced after hammer: %+v", s)
	}
}

// TestAllocNoTransientOOM guards the failure mode the idobench fig5
// capture once hit: a carve that took the heap's only free extent out
// of every list made every other caller scan an apparently empty heap
// and report out-of-memory with almost nothing allocated. A carve now
// runs wholly under the allocator's lock, so no free block is ever
// outside a list; Alloc must never fail while total live bytes are far
// below capacity, no matter how the carver is preempted.
func TestAllocNoTransientOOM(t *testing.T) {
	const (
		arena   = 1 << 22
		workers = 16
		perW    = 2048 // 64 B blocks each: 16*2048*64 = half the arena
	)
	// Pure allocation keeps every worker leaning on the carve path at
	// once (frees would restock the free lists and skip the carves), and
	// the persistence cost model's spin delays stretch the carve's
	// header writes, so a preempted carver holds the lock across many
	// scheduler slices — the same shape as the figure sweeps.
	d := nvm.New(nvm.Config{Size: arena, FlushNS: 50, FenceNS: 400})
	a := New(d, 0, arena)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			live := make([]uint64, 0, perW)
			for i := 0; i < perW; i++ {
				p, err := a.Alloc(56)
				if err != nil {
					t.Errorf("worker %d alloc %d: %v", w, i, err)
					break
				}
				live = append(live, p)
			}
			for _, p := range live {
				a.Free(p)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachCrashSweepReattaches crashes the recovery path itself:
// Attach's hop and the adoption scans behind it (run to completion by
// Stats) are killed at every event offset, then run again on the same
// image. They only read the device, so a crashed restart must be
// invisible — the re-Attach must succeed, see the identical heap, and
// agree byte-for-byte on allocated bytes with a MutexAllocator attach of
// the same image (the full-walk oracle for the persistent format).
func TestAttachCrashSweepReattaches(t *testing.T) {
	// Probe the workload's event count, then crash it past its own
	// restart, so the image Attach reads carries pending segments,
	// frees into them and in-flight state.
	_, _, workEvents, crashed := runSweep(1 << 40)
	if crashed {
		t.Fatal("probe budget fired")
	}
	d, st, _, crashed := runSweep(workEvents * 9 / 10)
	if !crashed {
		t.Fatal("mid-workload budget did not fire")
	}
	d.Crash(nvm.CrashDiscard, nil)

	// restart is the path under test; it reports whether a crash cut it.
	restart := func(budget int64) (a *Allocator, crashed bool) {
		d.ArmLocalCrash(budget)
		defer d.ArmLocalCrash(-1)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(nvm.CrashSignal); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		a, err := Attach(d, 0, sweepArena)
		if err != nil {
			t.Fatalf("budget %d: Attach errored instead of crashing: %v", budget, err)
		}
		a.Stats()
		return a, false
	}
	d.ArmLocalCrash(1 << 40)
	ref, _ := restart(1 << 40)
	scanEvents := int64(1)<<40 - d.LocalCrashBudgetRemaining()
	if ref.npending != 0 || scanEvents < 2*sweepArena/segSize {
		t.Fatalf("restart performed only %d device events, %d segments pending", scanEvents, ref.npending)
	}
	refAllocated := ref.Stats().AllocatedBytes

	for off := int64(1); off < scanEvents; off++ {
		if _, crashed := restart(off); !crashed {
			t.Fatalf("offset %d of %d did not crash the restart", off, scanEvents)
		}
		d.Crash(nvm.CrashDiscard, nil)

		a2, err := Attach(d, 0, sweepArena)
		if err != nil {
			t.Fatalf("offset %d: re-Attach after crashed restart: %v", off, err)
		}
		if err := a2.CheckInvariants(); err != nil {
			t.Fatalf("offset %d: invariants after crashed restart: %v", off, err)
		}
		if got := a2.Stats().AllocatedBytes; got != refAllocated {
			t.Fatalf("offset %d: re-Attach sees %d allocated bytes, reference saw %d", off, got, refAllocated)
		}
		checkLive(t, d, st, fmt.Sprintf("offset %d", off))
		m, err := AttachMutex(d, 0, sweepArena)
		if err != nil {
			t.Fatalf("offset %d: AttachMutex cross-check: %v", off, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("offset %d: MutexAllocator sees a different heap: %v", off, err)
		}
		if got := m.Stats().AllocatedBytes; got != refAllocated {
			t.Fatalf("offset %d: MutexAllocator sees %d allocated bytes, hop and scans saw %d", off, got, refAllocated)
		}
	}
	t.Logf("crashed the restart at each of %d device events", scanEvents-1)
}
