package nvm

import (
	"runtime"
	"testing"
)

// installedPages counts the pages the device has allocated.
func (d *Device) installedPages() int {
	n := 0
	for pi := range d.pages {
		if d.pages[pi].Load() != nil {
			n++
		}
	}
	return n
}

// persistedWord reads addr's word in the persistence domain, bypassing
// the cache.
func (d *Device) persistedWord(addr uint64) uint64 {
	p := d.readPage(addr)
	if p == nil {
		return 0
	}
	return loadWord(&p.words[pageWord(addr)])
}

// eachLineState calls fn with the device line number and state word of
// every line on an installed page.
func (d *Device) eachLineState(fn func(li uint64, st uint32)) {
	for pi := range d.pages {
		if p := d.pages[pi].Load(); p != nil {
			for l := range p.state {
				fn(uint64(pi)*linesPerPage+uint64(l), p.state[l].Load())
			}
		}
	}
}

// TestDeviceMemoryFollowsWrites: on a 256 MiB device, reads and
// write-backs install nothing, each write installs the page it lands on
// and nothing else, crashes and restores keep unwritten pages zero, and
// an installed page's hot paths allocate nothing.
func TestDeviceMemoryFollowsWrites(t *testing.T) {
	const size = 256 << 20
	const pageBytes = 1 << pageShift
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(Config{Size: size})
	runtime.ReadMemStats(&after)
	// The page table is 8 B per 4 KiB page; anything sized by capacity
	// would show here whatever the host's page-fault behaviour.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > size/256 {
		t.Fatalf("New allocated %d bytes for a %d-byte device", grew, size)
	}

	buf := make([]uint64, wordsPerPage)
	for base := uint64(0); base < size; base += pageBytes {
		if d.Load64(base) != 0 || d.Load64(base+pageBytes-WordSize) != 0 {
			t.Fatalf("page %#x reads nonzero before any write", base)
		}
		d.ReadWords(base, buf)
		d.CLWB(base)
		d.CLWB(base + pageBytes - LineSize)
	}
	d.FlushLines([]uint64{0, size - LineSize})
	d.PersistRange(0, 4*pageBytes)
	d.Fence()
	d.DrainCache()
	if n := d.installedPages(); n != 0 {
		t.Fatalf("reads and write-backs installed %d pages", n)
	}

	// Five writes into five pages: two stores share page 0, and the bulk
	// write straddles pages 2 and 3.
	d.Store64(8, 1)
	d.Store64(pageBytes-WordSize, 2)
	d.StoreNT(1000*pageBytes+16, 3)
	d.WriteWords(3*pageBytes-2*WordSize, []uint64{4, 5, 6, 7})
	d.WriteWordsNT(size-LineSize, []uint64{8})
	written := map[uint64]bool{0: true, 2: true, 3: true, 1000: true, size/pageBytes - 1: true}
	if n := d.installedPages(); n != len(written) {
		t.Fatalf("writes into %d pages installed %d", len(written), n)
	}

	zeroElsewhere := func(when string) {
		t.Helper()
		for pi := uint64(0); pi < size/pageBytes; pi++ {
			if !written[pi] && d.Load64(pi*pageBytes+64) != 0 {
				t.Fatalf("%s: unwritten page %d reads nonzero", when, pi)
			}
		}
		if n := d.installedPages(); n != len(written) {
			t.Fatalf("%s: %d pages installed, want %d", when, n, len(written))
		}
	}
	d.CLWB(8)
	d.Crash(CrashDiscard, nil)
	zeroElsewhere("after Crash")
	if d.Load64(8) != 1 || d.Load64(1000*pageBytes+16) != 3 || d.Load64(size-LineSize) != 8 {
		t.Fatal("persisted words lost across Crash")
	}

	img := d.SnapshotPersistent()
	zeroElsewhere("after SnapshotPersistent")
	d.RestorePersistent(img)
	zeroElsewhere("after RestorePersistent")

	// A fresh device restored from the image installs exactly the pages
	// holding a nonzero persisted word: not page 2 or 3, whose bulk
	// write was never written back.
	fresh := New(Config{Size: size})
	fresh.RestorePersistent(img)
	if n := fresh.installedPages(); n != 3 {
		t.Fatalf("restore into a fresh device installed %d pages, want 3", n)
	}
	if fresh.Load64(8) != 1 || fresh.Load64(1000*pageBytes+16) != 3 || fresh.Load64(size-LineSize) != 8 {
		t.Fatal("restored image lost persisted words")
	}

	hot := uint64(1000*pageBytes + 64)
	for name, op := range map[string]func(){
		"Load64":  func() { d.Load64(hot) },
		"Store64": func() { d.Store64(hot, 9) },
		"CLWB":    func() { d.CLWB(hot) },
		"StoreNT": func() { d.StoreNT(hot+8, 10) },
	} {
		if a := testing.AllocsPerRun(100, op); a != 0 {
			t.Errorf("%s on an installed page allocates %v times per call", name, a)
		}
	}
}
