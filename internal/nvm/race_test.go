package nvm

import (
	"math/rand"
	"sync"
	"testing"
)

// TestDeviceConcurrentHammer drives the per-line lock discipline from 16
// goroutines issuing every hot-path operation over a shared address range
// while a disruptor concurrently crashes, drains, and snapshots the
// device. It asserts no invariant breaks and that the device is still
// coherent afterwards; its real teeth are under `go test -race`, where the
// build swaps in wordops_race.go and the race detector checks that every
// word and counter access is ordered by a line lock or is genuinely
// lock-free by design.
func TestDeviceConcurrentHammer(t *testing.T) {
	const (
		workers = 16
		iters   = 2000
		size    = 1 << 18 // 4096 lines, enough for real line conflicts
	)
	d := New(Config{Size: size, EvictionRate: 64})
	limit := uint64(size)

	stop := make(chan struct{})
	var workersWG, disruptorWG sync.WaitGroup

	// Disruptor: whole-device operations racing against the workers.
	disruptorWG.Add(1)
	go func() {
		defer disruptorWG.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 5 {
			case 0:
				d.Crash(CrashRandom, rng)
			case 1:
				d.Crash(CrashDiscard, nil)
			case 2:
				d.DrainCache()
			case 3:
				img := d.SnapshotPersistent()
				d.RestorePersistent(img)
			case 4:
				_ = d.Stats()
			}
		}
	}()

	for g := 0; g < workers; g++ {
		workersWG.Add(1)
		go func(seed int64) {
			defer workersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]uint64, 4*wordsPerLine)
			for i := 0; i < iters; i++ {
				addr := (rng.Uint64() % (limit - uint64(len(buf))*WordSize)) &^ (WordSize - 1)
				switch i % 8 {
				case 0:
					d.Store64(addr, rng.Uint64())
				case 1:
					_ = d.Load64(addr)
				case 2:
					d.CLWB(addr)
					d.Fence()
				case 3:
					d.ReadWords(addr, buf)
				case 4:
					d.WriteWords(addr, buf)
				case 5:
					d.WriteWordsNT(addr, buf[:wordsPerLine])
				case 6:
					d.StoreNT(addr, rng.Uint64())
				case 7:
					d.PersistRange(addr, 2*LineSize)
				}
			}
		}(int64(g + 1))
	}

	workersWG.Wait()
	close(stop)
	disruptorWG.Wait()

	// Post-mortem coherence: every line's state word must be unlocked and
	// honor dirty ⊆ valid.
	d.eachLineState(func(li uint64, st uint32) {
		if st&lineLock != 0 {
			t.Fatalf("line %d left locked: state %#x", li, st)
		}
		valid := st >> validShift & laneMask
		dirty := st >> dirtyShift & laneMask
		if dirty&^valid != 0 {
			t.Fatalf("line %d dirty bits outside valid: state %#x", li, st)
		}
	})

	// The device must still work: a store/flush/fence/crash round trip
	// persists exactly as in the single-threaded contract.
	d.Store64(512, 0xDEADBEEF)
	d.CLWB(512)
	d.Fence()
	d.Crash(CrashDiscard, nil)
	if got := d.Load64(512); got != 0xDEADBEEF {
		t.Fatalf("flushed store lost after hammer: got %#x", got)
	}
}

// TestDeviceConcurrentFirstWrites races page installation: 16 goroutines
// each write their own word of every even page while a disruptor crashes
// (persist-all, so no write is lost) and snapshots the device. Every page
// is first written by whichever goroutine gets there first, so every
// install is contested; a writer that lost the compare-and-swap yet wrote
// into its own page would lose its word. Odd pages are never written and
// must stay absent.
func TestDeviceConcurrentFirstWrites(t *testing.T) {
	const (
		workers   = 16
		pages     = 256
		pageBytes = 1 << pageShift
	)
	d := New(Config{Size: pages * pageBytes})
	tag := func(g, pi uint64) uint64 { return g<<32 | pi + 1 }

	stop := make(chan struct{})
	var workersWG, disruptorWG sync.WaitGroup
	disruptorWG.Add(1)
	go func() {
		defer disruptorWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				d.Crash(CrashPersistAll, nil)
			} else {
				_ = d.SnapshotPersistent()
			}
		}
	}()
	for g := uint64(0); g < workers; g++ {
		workersWG.Add(1)
		go func(g uint64) {
			defer workersWG.Done()
			for pi := uint64(0); pi < pages; pi += 2 {
				a := pi*pageBytes + g*LineSize
				switch (pi/2 + g) % 3 {
				case 0:
					d.Store64(a, tag(g, pi))
				case 1:
					d.StoreNT(a, tag(g, pi))
				case 2:
					d.WriteWords(a, []uint64{tag(g, pi)})
				}
			}
		}(g)
	}
	workersWG.Wait()
	close(stop)
	disruptorWG.Wait()

	if n := d.installedPages(); n != pages/2 {
		t.Fatalf("%d pages installed, want the %d written", n, pages/2)
	}
	for pi := uint64(0); pi < pages; pi += 2 {
		for g := uint64(0); g < workers; g++ {
			if got := d.Load64(pi*pageBytes + g*LineSize); got != tag(g, pi) {
				t.Fatalf("page %d, writer %d: got %#x, want %#x", pi, g, got, tag(g, pi))
			}
		}
	}
}

// TestDeviceConcurrentDisjoint checks value integrity, not just memory
// safety: 16 goroutines each own a disjoint window, store tagged values,
// persist them, and read them back while neighbors hammer their own
// windows. Per-line locking must never let one goroutine's traffic bleed
// into another's lines.
func TestDeviceConcurrentDisjoint(t *testing.T) {
	const (
		workers     = 16
		linesPerG   = 64
		windowBytes = linesPerG * LineSize
	)
	d := New(Config{Size: workers * windowBytes})

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g * windowBytes
			for i := uint64(0); i < windowBytes/WordSize; i++ {
				a := base + i*WordSize
				d.Store64(a, g<<32|i)
			}
			d.PersistRange(base, windowBytes)
			d.Fence()
			for i := uint64(0); i < windowBytes/WordSize; i++ {
				a := base + i*WordSize
				if got, want := d.Load64(a), g<<32|i; got != want {
					t.Errorf("goroutine %d: word %d = %#x, want %#x", g, i, got, want)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Everything was persisted before the fence, so a discard crash must
	// lose nothing.
	d.Crash(CrashDiscard, nil)
	for g := uint64(0); g < workers; g++ {
		for i := uint64(0); i < windowBytes/WordSize; i++ {
			a := g*windowBytes + i*WordSize
			if got, want := d.Load64(a), g<<32|i; got != want {
				t.Fatalf("after crash: goroutine %d word %d = %#x, want %#x", g, i, got, want)
			}
		}
	}
}
