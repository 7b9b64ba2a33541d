package nvalloc

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/ido-nvm/ido/internal/nvm"
)

// TestAttachCostIsPerSegment is the restart budget as an exact count:
// Attach loads one header per slab segment and per extent, whatever the
// number of blocks in the segments and whatever the size of the arena
// behind the frontier, and the first Alloc after it scans one segment.
func TestAttachCostIsPerSegment(t *testing.T) {
	const larges = 3
	loads := map[int]uint64{} // blocks -> Attach loads, equal across arenas
	for _, arena := range []int{16 << 20, 256 << 20} {
		for _, blocks := range []int{1000, 10000, 100000} {
			d := nvm.New(nvm.Config{Size: arena})
			a := New(d, 0, uint64(arena))
			for i := 0; i < blocks; i++ {
				if i%(blocks/larges) == 0 { // extents between the segments
					if _, err := a.Alloc(3 * maxSmall); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := a.Alloc(56); err != nil {
					t.Fatal(err)
				}
			}
			d.Crash(nvm.CrashDiscard, nil)

			before := d.Stats().Loads
			a2, err := Attach(d, 0, uint64(arena))
			if err != nil {
				t.Fatal(err)
			}
			got := d.Stats().Loads - before
			segments := (uint64(blocks)*64 + segSize - 1) / segSize
			if got > segments+larges+8 {
				t.Errorf("arena %d MiB, %d blocks: Attach loaded %d headers, want at most %d segments + %d extents + 8",
					arena>>20, blocks, got, segments, larges)
			}
			if prev, ok := loads[blocks]; ok && prev != got {
				t.Errorf("%d blocks: Attach loaded %d headers on a %d MiB arena, %d on a smaller one", blocks, got, arena>>20, prev)
			}
			loads[blocks] = got

			before = d.Stats().Loads
			if _, err := a2.Alloc(56); err != nil {
				t.Fatal(err)
			}
			if got := d.Stats().Loads - before; got > segSize/64+8 {
				t.Errorf("arena %d MiB, %d blocks: first Alloc after Attach loaded %d headers, want at most one segment's %d + 8",
					arena>>20, blocks, got, segSize/64)
			}
			if err := a2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got, want := a2.Stats().AllocatedBytes, a.Stats().AllocatedBytes+64; got != want {
				t.Errorf("arena %d MiB, %d blocks: %d bytes allocated after restart, want %d", arena>>20, blocks, got, want)
			}
		}
	}
}

// TestAdoptHammer16 races the two halves of lazy adoption under the
// detector: after a restart eight goroutines free the pre-crash blocks
// while eight more allocate the same classes, so scans adopt the very
// segments the frees are landing in. Every block must end up owned once:
// no allocation may return a block that is still live, and when all is
// freed the heap must count zero allocated bytes.
func TestAdoptHammer16(t *testing.T) {
	const (
		arena   = 64 * segSize
		workers = 8
		perW    = 1500
	)
	sizes := [...]int{24, 56, 120}
	d := nvm.New(nvm.Config{Size: arena})
	a := New(d, 0, arena)
	var old [workers][]uint64
	for i := 0; i < workers*perW; i++ {
		p, err := a.Alloc(sizes[i%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		old[i%workers] = append(old[i%workers], p)
	}
	d.Crash(nvm.CrashDiscard, nil)
	a, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatal(err)
	}
	if a.npending < 3 {
		t.Fatalf("only %d segments pending after the restart", a.npending)
	}

	var owner sync.Map // live user address -> struct{}
	for _, ps := range old {
		for _, p := range ps {
			owner.Store(p, struct{}{})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(ps []uint64) {
			defer wg.Done()
			for _, p := range ps {
				owner.Delete(p)
				a.Free(p)
			}
		}(old[w])
		go func(w int) {
			defer wg.Done()
			var mine []uint64
			for i := 0; i < perW; i++ {
				p, err := a.Alloc(sizes[(w+i)%len(sizes)])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, dup := owner.LoadOrStore(p, struct{}{}); dup {
					t.Errorf("worker %d: Alloc returned live block %#x", w, p)
					return
				}
				mine = append(mine, p)
			}
			for _, p := range mine {
				owner.Delete(p)
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
	if s := a.Stats(); s.AllocatedBytes != 0 {
		t.Fatalf("unbalanced after hammer: %+v", s)
	}
}

// TestHistoryIsDeterministic is the determinism contract across a
// restart: the same single-threaded Alloc/Free/crash/Attach history run
// twice yields the same addresses and the same device traffic, lazy
// adoption included.
func TestHistoryIsDeterministic(t *testing.T) {
	const arena = 16 * segSize
	run := func() (addrs []uint64, st nvm.Stats) {
		d := nvm.New(nvm.Config{Size: arena})
		a := New(d, 0, arena)
		alloc := func(n int) {
			p, err := a.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, p)
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 400; i++ {
				alloc(16 + (i*37)%300)
				if i%3 == 0 {
					a.Free(addrs[len(addrs)-1-i/3])
					addrs[len(addrs)-1-i/3] = addrs[len(addrs)-1]
					addrs = addrs[:len(addrs)-1]
				}
			}
			alloc(5000 + 1000*round)
			d.Crash(nvm.CrashDiscard, nil)
			var err error
			if a, err = Attach(d, 0, arena); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range addrs[:len(addrs)/2] {
			a.Free(p)
		}
		alloc(40)
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return addrs, d.Stats()
	}
	a1, s1 := run()
	a2, s2 := run()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("two runs of one history returned different addresses")
	}
	if s1 != s2 {
		t.Fatalf("two runs of one history made different device traffic:\n%s\n%s", fmt.Sprint(s1), fmt.Sprint(s2))
	}
}

// TestSegmentPlacementEdges walks the corners of segment placement: an
// extent that starts 8 bytes short of the grid (no room for a header
// before the segment, so the next grid line is taken), an arena whose
// cut-short last segment ends in an 8-byte sliver (folded into the last
// block), and a large request served from a segment's tail once the
// extents are spent. Each heap must chain, and re-attach, cleanly.
func TestSegmentPlacementEdges(t *testing.T) {
	check := func(d *nvm.Device, a *Allocator, arena uint64) {
		t.Helper()
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		d.Crash(nvm.CrashDiscard, nil)
		a2, err := Attach(d, 0, arena)
		if err != nil {
			t.Fatal(err)
		}
		if err := a2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got, want := a2.Stats().AllocatedBytes, a.Stats().AllocatedBytes; got != want {
			t.Fatalf("%d bytes allocated after restart, %d before", got, want)
		}
	}

	d, a := newHeap(t, 4*segSize)
	if _, err := a.Alloc(segSize - 8 - headerSize); err != nil {
		t.Fatal(err)
	}
	p, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if p != 2*segSize+headerSize {
		t.Fatalf("segment opened at %#x, want the grid line %#x", p-headerSize, 2*segSize)
	}
	check(d, a, 4*segSize)

	d, a = newHeap(t, 1<<12+8)
	p1, err1 := a.Alloc(2000)
	p2, err2 := a.Alloc(2000)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if got := a.BlockSize(p1) + a.BlockSize(p2) + 2*headerSize; got != 1<<12+8 {
		t.Fatalf("two blocks cover %d bytes of a %d-byte arena", got, 1<<12+8)
	}
	check(d, a, 1<<12+8)

	d, a = newHeap(t, segSize)
	if _, err := a.Alloc(16); err != nil { // the whole arena is now one class's segment
		t.Fatal(err)
	}
	if _, err := a.Alloc(2 * maxSmall); err != nil {
		t.Fatalf("large request with a free segment tail: %v", err)
	}
	check(d, a, segSize)
}
