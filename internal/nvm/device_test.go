package nvm

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func newDev(t testing.TB) *Device {
	t.Helper()
	return New(Config{Size: 1 << 16})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	d := newDev(t)
	d.Store64(0, 42)
	d.Store64(8, 43)
	d.Store64(1<<16-8, 99)
	if got := d.Load64(0); got != 42 {
		t.Fatalf("Load64(0) = %d, want 42", got)
	}
	if got := d.Load64(8); got != 43 {
		t.Fatalf("Load64(8) = %d, want 43", got)
	}
	if got := d.Load64(1<<16 - 8); got != 99 {
		t.Fatalf("Load64(last) = %d, want 99", got)
	}
}

func TestMisalignedPanics(t *testing.T) {
	d := newDev(t)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned store did not panic")
		}
	}()
	d.Store64(4, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDev(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range store did not panic")
		}
	}()
	d.Store64(1<<16, 1)
}

func TestUnflushedStoreLostOnDiscardCrash(t *testing.T) {
	d := newDev(t)
	d.Store64(128, 7)
	d.Crash(CrashDiscard, nil)
	if got := d.Load64(128); got != 0 {
		t.Fatalf("unflushed store survived discard crash: %d", got)
	}
}

func TestFlushedStoreSurvivesCrash(t *testing.T) {
	d := newDev(t)
	d.Store64(128, 7)
	d.CLWB(128)
	d.Fence()
	d.Crash(CrashDiscard, nil)
	if got := d.Load64(128); got != 7 {
		t.Fatalf("flushed store lost: got %d, want 7", got)
	}
}

func TestNTStoreSurvivesCrashWithoutFlush(t *testing.T) {
	d := newDev(t)
	d.StoreNT(64, 11)
	d.Crash(CrashDiscard, nil)
	if got := d.Load64(64); got != 11 {
		t.Fatalf("NT store lost: got %d, want 11", got)
	}
}

func TestNTStoreInvalidatesCachedWord(t *testing.T) {
	d := newDev(t)
	d.Store64(64, 5) // cached, dirty
	d.StoreNT(64, 6) // bypasses, invalidates
	if got := d.Load64(64); got != 6 {
		t.Fatalf("Load64 after NT store = %d, want 6", got)
	}
	d.Crash(CrashDiscard, nil)
	if got := d.Load64(64); got != 6 {
		t.Fatalf("after crash = %d, want 6", got)
	}
}

func TestCrashPersistAllKeepsDirtyData(t *testing.T) {
	d := newDev(t)
	d.Store64(256, 123)
	d.Crash(CrashPersistAll, nil)
	if got := d.Load64(256); got != 123 {
		t.Fatalf("persist-all crash lost data: %d", got)
	}
}

func TestCrashRandomIsSubsetOfDirtyWords(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		d := newDev(t)
		// Two dirty words on the same line.
		d.Store64(0, 100)
		d.Store64(8, 200)
		d.Crash(CrashRandom, rng)
		a, b := d.Load64(0), d.Load64(8)
		if a != 0 && a != 100 {
			t.Fatalf("word 0 corrupted: %d", a)
		}
		if b != 0 && b != 200 {
			t.Fatalf("word 8 corrupted: %d", b)
		}
	}
}

func TestPersistRangeCoversAllLines(t *testing.T) {
	d := newDev(t)
	for a := uint64(0); a < 256; a += 8 {
		d.Store64(a, a+1)
	}
	d.PersistRange(0, 256)
	d.Fence()
	d.Crash(CrashDiscard, nil)
	for a := uint64(0); a < 256; a += 8 {
		if got := d.Load64(a); got != a+1 {
			t.Fatalf("addr %d: got %d, want %d", a, got, a+1)
		}
	}
}

func TestPersistRangeZeroLength(t *testing.T) {
	d := newDev(t)
	before := d.Stats().Flushes
	d.PersistRange(64, 0)
	if d.Stats().Flushes != before {
		t.Fatal("PersistRange(_, 0) issued flushes")
	}
}

func TestWriteReadBytesUnaligned(t *testing.T) {
	d := newDev(t)
	msg := []byte("hello, nonvolatile world")
	d.WriteBytes(3, msg)
	if got := d.ReadBytes(3, len(msg)); !bytes.Equal(got, msg) {
		t.Fatalf("ReadBytes = %q, want %q", got, msg)
	}
	// Neighbors untouched.
	if got := d.Load64(64); got != 0 {
		t.Fatalf("neighbor clobbered: %d", got)
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	d := New(Config{Size: 1 << 14})
	f := func(off uint16, data []byte) bool {
		if len(data) > 512 {
			data = data[:512]
		}
		addr := uint64(off) % (1<<14 - 1024)
		d.WriteBytes(addr, data)
		return bytes.Equal(d.ReadBytes(addr, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushedPrefixSurvivesAnyCrashProperty(t *testing.T) {
	// Property: whatever was stored then CLWB+Fence'd survives every
	// crash mode; unflushed data never corrupts *other* words.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, nFlushed, nDirty uint8) bool {
		d := New(Config{Size: 1 << 13})
		r := rand.New(rand.NewSource(seed))
		type w struct{ addr, val uint64 }
		flushed := make([]w, 0, nFlushed)
		for i := 0; i < int(nFlushed); i++ {
			a := uint64(r.Intn(1<<13/8)) * 8
			v := r.Uint64()
			d.Store64(a, v)
			d.CLWB(a)
			flushed = append(flushed, w{a, v})
		}
		d.Fence()
		seen := map[uint64]bool{}
		for _, x := range flushed {
			seen[x.addr] = true
		}
		for i := 0; i < int(nDirty); i++ {
			a := uint64(r.Intn(1<<13/8)) * 8
			if seen[a] {
				continue
			}
			d.Store64(a, r.Uint64())
		}
		mode := CrashMode(r.Intn(3))
		d.Crash(mode, rng)
		// Later flushed writes to the same addr win; walk backwards.
		want := map[uint64]uint64{}
		for _, x := range flushed {
			want[x.addr] = x.val
		}
		for a, v := range want {
			if got := d.Load64(a); got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotExcludesDirtyCache(t *testing.T) {
	d := newDev(t)
	d.Store64(0, 9)
	d.CLWB(0)
	d.Fence()
	d.Store64(8, 10) // dirty, unflushed
	img := d.SnapshotPersistent()
	d2 := New(Config{Size: 1 << 16})
	d2.RestorePersistent(img)
	if got := d2.Load64(0); got != 9 {
		t.Fatalf("persisted word missing from snapshot: %d", got)
	}
	if got := d2.Load64(8); got != 0 {
		t.Fatalf("dirty word leaked into snapshot: %d", got)
	}
}

func TestDrainCachePersistsEverything(t *testing.T) {
	d := newDev(t)
	for a := uint64(0); a < 1024; a += 8 {
		d.Store64(a, a^0xABCD)
	}
	d.DrainCache()
	d.Crash(CrashDiscard, nil)
	for a := uint64(0); a < 1024; a += 8 {
		if got := d.Load64(a); got != a^0xABCD {
			t.Fatalf("addr %d lost after drain: %d", a, got)
		}
	}
}

func TestConcurrentDisjointStores(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	const goroutines = 8
	const per = 2048
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * per * 8
			for i := uint64(0); i < per; i++ {
				d.Store64(base+i*8, uint64(g)<<32|i)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		base := uint64(g) * per * 8
		for i := uint64(0); i < per; i++ {
			if got := d.Load64(base + i*8); got != uint64(g)<<32|i {
				t.Fatalf("g%d word %d: got %#x", g, i, got)
			}
		}
	}
}

func TestStatsCount(t *testing.T) {
	d := newDev(t)
	d.Store64(0, 1)
	d.Load64(0)
	d.CLWB(0)
	d.Fence()
	d.StoreNT(8, 2)
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.Flushes != 1 || s.Fences != 1 || s.NTStores != 1 {
		t.Fatalf("stats = %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

// TestStripesOwnCacheLines checks that the counter and eviction-RNG
// stripes start on a cache line, so each 64-byte stripe fills exactly
// one line and two goroutines' stripes never share one.
func TestStripesOwnCacheLines(t *testing.T) {
	if unsafe.Sizeof(statStripe{}) != LineSize || unsafe.Sizeof(evictStripe{}) != LineSize {
		t.Fatalf("stripe sizes %d and %d, want %d", unsafe.Sizeof(statStripe{}), unsafe.Sizeof(evictStripe{}), LineSize)
	}
	for i := 0; i < 8; i++ {
		d := New(Config{Size: LineSize})
		if p := uintptr(unsafe.Pointer(&d.stripes[0])); p%LineSize != 0 {
			t.Errorf("device %d: counter stripes start at %d mod %d", i, p%LineSize, LineSize)
		}
		if p := uintptr(unsafe.Pointer(&d.evict[0])); p%LineSize != 0 {
			t.Errorf("device %d: eviction stripes start at %d mod %d", i, p%LineSize, LineSize)
		}
	}
}

func TestEvictionEventuallyPersists(t *testing.T) {
	d := New(Config{Size: 1 << 12, EvictionRate: 2})
	for i := 0; i < 4096; i++ {
		d.Store64(uint64(i%64)*8, uint64(i))
	}
	if d.Stats().Evictions == 0 {
		t.Fatal("no spontaneous evictions with EvictionRate=2")
	}
}

func TestCrashModeString(t *testing.T) {
	if CrashDiscard.String() != "discard" || CrashRandom.String() != "random" ||
		CrashPersistAll.String() != "persist-all" {
		t.Fatal("CrashMode.String mismatch")
	}
	if CrashMode(9).String() == "" {
		t.Fatal("unknown mode should still stringify")
	}
}

func BenchmarkStore64(b *testing.B) {
	d := New(Config{Size: 1 << 20})
	for i := 0; i < b.N; i++ {
		d.Store64(uint64(i%(1<<17))*8, uint64(i))
	}
}

func BenchmarkCLWBFence(b *testing.B) {
	d := New(Config{Size: 1 << 20, FlushNS: 0, FenceNS: 0})
	d.Store64(0, 1)
	for i := 0; i < b.N; i++ {
		d.Store64(0, uint64(i))
		d.CLWB(0)
		d.Fence()
	}
}
