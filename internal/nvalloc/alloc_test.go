package nvalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ido-nvm/ido/internal/nvm"
)

func newHeap(t testing.TB, size int) (*nvm.Device, *Allocator) {
	t.Helper()
	d := nvm.New(nvm.Config{Size: size})
	return d, New(d, 0, uint64(size))
}

func TestAllocZeroedAndAligned(t *testing.T) {
	d, a := newHeap(t, 1<<16)
	p, err := a.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if p%8 != 0 {
		t.Fatalf("unaligned block %#x", p)
	}
	for i := uint64(0); i < 24; i += 8 {
		if d.Load64(p+i) != 0 {
			t.Fatalf("block not zeroed at +%d", i)
		}
	}
	if a.BlockSize(p) < 24 {
		t.Fatalf("BlockSize = %d, want >= 24", a.BlockSize(p))
	}
}

func TestAllocFreeReuse(t *testing.T) {
	_, a := newHeap(t, 1<<12)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		p, err := a.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		seen[p] = true
		a.Free(p)
	}
	if len(seen) > 4 {
		t.Fatalf("free blocks not reused: %d distinct addrs", len(seen))
	}
}

// TestFreshCarvePopsDescending pins where a pure-insert history puts its
// blocks: the first carve returns block 0 and files blocks 1..15 so that
// block 15 pops first. Every prefill (fase-direct's included) lays out
// its items this way, and its device counts depend on that layout.
func TestFreshCarvePopsDescending(t *testing.T) {
	_, a := newHeap(t, 1<<20)
	want := []uint64{0}
	for i := uint64(15); i >= 1; i-- {
		want = append(want, i)
	}
	for i, w := range want {
		p, err := a.Alloc(56)
		if err != nil {
			t.Fatal(err)
		}
		if blk := p - headerSize; blk != w*64 {
			t.Fatalf("Alloc %d returned the block at %#x, want block %d of the first segment (%#x)", i, blk, w, w*64)
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	_, a := newHeap(t, 1<<10)
	var held []uint64
	for {
		p, err := a.Alloc(64)
		if err != nil {
			break
		}
		held = append(held, p)
	}
	if len(held) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// After freeing, allocation works again.
	for _, p := range held {
		a.Free(p)
	}
	if _, err := a.Alloc(64); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	_, a := newHeap(t, 1<<12)
	p, _ := a.Alloc(16)
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p)
}

func TestInvalidSize(t *testing.T) {
	_, a := newHeap(t, 1<<12)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("Alloc(-5) succeeded")
	}
}

func TestAttachAfterCrashSeesPersistedBlocks(t *testing.T) {
	d, a := newHeap(t, 1<<14)
	p1, _ := a.Alloc(40)
	p2, _ := a.Alloc(40)
	a.Free(p1)
	// Headers are persisted eagerly, so a discard crash keeps them.
	d.Crash(nvm.CrashDiscard, nil)
	a2, err := Attach(d, 0, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// p2's block must still be allocated; allocating must not return it.
	for i := 0; i < 50; i++ {
		p, err := a2.Alloc(40)
		if err != nil {
			break
		}
		if p == p2 {
			t.Fatal("recovered allocator handed out a live block")
		}
	}
}

// corrupt overwrites one header word durably.
func corrupt(d *nvm.Device, addr, h uint64) {
	d.Store64(addr, h)
	d.CLWB(addr)
	d.Fence()
}

// TestAttachRejectsCorruptHeap: the headers Attach reads — the first of
// each slab segment, and every extent's — are validated by it.
func TestAttachRejectsCorruptHeap(t *testing.T) {
	const arena = 4 * segSize
	for _, tc := range []struct {
		name string
		at   func(small, large uint64) uint64
		h    uint64
	}{
		{"segment head, nonsense size", func(small, _ uint64) uint64 { return small }, 3},
		{"segment head, not a class size", func(small, _ uint64) uint64 { return small }, 48<<1 | slabBit | allocBit},
		{"extent head, runs past the arena", func(_, large uint64) uint64 { return large }, arena<<2 | allocBit},
		{"extent head, slab bit off a segment boundary", func(_, large uint64) uint64 { return large }, 64<<1 | slabBit},
	} {
		d, a := newHeap(t, arena)
		if _, err := a.Alloc(2 * maxSmall); err != nil {
			t.Fatal(err)
		}
		large, err := a.Alloc(2 * maxSmall) // an extent off the segment grid
		if err != nil {
			t.Fatal(err)
		}
		small, err := a.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if small -= headerSize; d.Load64(small)&slabBit == 0 {
			t.Fatalf("first block of the class at %#x is not a segment head", small)
		}
		corrupt(d, tc.at(small, large-headerSize), tc.h)
		if _, err := Attach(d, 0, arena); err == nil {
			t.Errorf("%s: Attach accepted the heap", tc.name)
		}
	}
}

// TestAdoptionSurfacesCorruptInterior: a header inside a segment is not
// read by Attach; the Alloc whose adoption scan meets it returns the
// error — no panic, no lock left held — and CheckInvariants reports it.
func TestAdoptionSurfacesCorruptInterior(t *testing.T) {
	const arena = 4 * segSize
	d, a := newHeap(t, arena)
	var p [3]uint64
	for i := range p {
		var err error
		if p[i], err = a.Alloc(48); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(d, p[1]-headerSize, 3)
	d.Crash(nvm.CrashDiscard, nil)
	a2, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatalf("Attach read past the segment head: %v", err)
	}
	if _, err := a2.Alloc(48); err == nil {
		t.Fatal("Alloc adopted a segment with a corrupt interior header and reported nothing")
	}
	if name := leakedLock(a2); name != "" {
		t.Fatalf("%s lock held after the failed adoption", name)
	}
	if err := a2.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a corrupt interior header")
	}
	// The scan stranded what lies past the corrupt header; the class
	// carries on from a fresh segment.
	q, err := a2.Alloc(48)
	if err != nil {
		t.Fatalf("Alloc after the failed adoption: %v", err)
	}
	if q == p[0] || q == p[1] || q == p[2] {
		t.Fatalf("Alloc handed out live block %#x", q)
	}

	a3, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatal(err)
	}
	if err := a3.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants adopted past a corrupt interior header")
	}
}

func TestStats(t *testing.T) {
	_, a := newHeap(t, 1<<12)
	p, _ := a.Alloc(16)
	s := a.Stats()
	if s.Allocs != 1 || s.Frees != 0 || s.AllocatedBytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
	a.Free(p)
	s = a.Stats()
	if s.Frees != 1 || s.AllocatedBytes != 0 {
		t.Fatalf("stats after free = %+v", s)
	}
}

func TestRandomAllocFreeInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := nvm.New(nvm.Config{Size: 1 << 14})
		a := New(d, 0, 1<<14)
		r := rand.New(rand.NewSource(seed))
		var live []uint64
		for op := 0; op < 300; op++ {
			if len(live) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(live))
				a.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				p, err := a.Alloc(8 + r.Intn(200))
				if err == nil {
					live = append(live, p)
				}
			}
			if op%50 == 0 {
				if err := a.CheckInvariants(); err != nil {
					return false
				}
			}
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointBlocksProperty(t *testing.T) {
	// Allocated blocks never overlap.
	d := nvm.New(nvm.Config{Size: 1 << 15})
	a := New(d, 0, 1<<15)
	type blk struct {
		p uint64
		n int
	}
	var live []blk
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := 8 + r.Intn(128)
		p, err := a.Alloc(n)
		if err != nil {
			break
		}
		for _, b := range live {
			if p < b.p+uint64(b.n) && b.p < p+uint64(n) {
				t.Fatalf("overlap: [%#x,+%d) vs [%#x,+%d)", p, n, b.p, b.n)
			}
		}
		live = append(live, blk{p, n})
	}
}

// leakedLock try-locks the allocator's mutex and names it if it is still
// held. Used after a CrashSignal unwind: a leaked lock turns an
// injected crash into a process-wide deadlock (the table1 harness hit
// exactly that: one worker killed mid-Alloc, the rest asleep in Lock).
func leakedLock(a *Allocator) string {
	if !a.mu.TryLock() {
		return "allocator"
	}
	a.mu.Unlock()
	return ""
}

// TestAllocCrashReleasesLock sweeps the injection budget so CrashSignal
// fires at every device event inside Alloc and Free — including the
// ones under the allocator's lock (carves, splits, adoption scans, a
// Free into a pending segment) — and asserts the unwind leaks no lock.
func TestAllocCrashReleasesLock(t *testing.T) {
	crashed := 0
	for budget := int64(1); budget < 96; budget++ {
		d, a := newHeap(t, 1<<16)
		if _, err := a.Alloc(24); err != nil { // populate free lists
			t.Fatal(err)
		}
		d.ArmLocalCrash(budget)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
					crashed++
				}
			}()
			var live []uint64
			for i := 0; i < 8; i++ {
				p, err := a.Alloc(24 + i*8)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, p)
			}
			for _, p := range live {
				a.Free(p)
			}
		}()
		d.ArmLocalCrash(-1)
		if name := leakedLock(a); name != "" {
			t.Fatalf("budget %d: %s lock leaked by crash unwind", budget, name)
		}
	}
	if crashed == 0 {
		t.Fatal("sweep never fired a crash inside Alloc/Free")
	}
}
