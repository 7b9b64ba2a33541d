package obs

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestRingBasics(t *testing.T) {
	tr := New(Config{ThreadRingCap: 8, DeviceRingCap: 8})
	r := tr.ThreadRing("t/0")
	r.Emit(KLockAcq, 0x40, 0)
	t0 := r.Clock()
	r.Span(KFASE, 24, 0, t0)
	r.Observe(HLogBytesPerFASE, 24)

	if got := tr.Count(KLockAcq); got != 1 {
		t.Fatalf("Count(KLockAcq) = %d, want 1", got)
	}
	if got := tr.Count(KFASE); got != 1 {
		t.Fatalf("Count(KFASE) = %d, want 1", got)
	}
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("Events = %d, want 2", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("merge not ordered: ts[%d]=%d < ts[%d]=%d", i, ev[i].TS, i-1, ev[i-1].TS)
		}
	}
	s := tr.Hist(HLogBytesPerFASE)
	if s.Count != 1 || s.Sum != 24 {
		t.Fatalf("hist summary = %+v", s)
	}
}

func TestRingDropNotTear(t *testing.T) {
	tr := New(Config{ThreadRingCap: 4, DeviceRingCap: 4})
	r := tr.ThreadRing("t/0")
	for i := 0; i < 100; i++ {
		r.Emit(KLogAppend, uint64(i), 0)
	}
	if got := tr.Count(KLogAppend); got != 100 {
		t.Fatalf("Count = %d, want 100 (counts must be exact past overflow)", got)
	}
	if got := tr.Dropped(); got != 96 {
		t.Fatalf("Dropped = %d, want 96", got)
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("Events = %d, want 4 (bounded, never wrapped)", got)
	}
}

func TestNilTracerAndRingAreSafe(t *testing.T) {
	var tr *Tracer
	if tr.Clock() != 0 {
		t.Fatal("nil tracer Clock != 0")
	}
	r := tr.ThreadRing("x")
	if r != nil {
		t.Fatal("nil tracer returned non-nil ring")
	}
	r.Emit(KFlush, 1, 2)
	r.Span(KFASE, 1, 2, r.Clock())
	r.Observe(HFlushNS, 5)
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	r := tr.ThreadRing("x")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(KBoundary, 1, 2)
		r.Span(KRegion, 1, 2, r.Clock())
		r.Observe(HRegionNS, 9)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f/op, want 0", allocs)
	}
}

func TestEnabledPathZeroAlloc(t *testing.T) {
	tr := New(Config{ThreadRingCap: 1 << 16, DeviceRingCap: 1 << 10})
	r := tr.ThreadRing("t/0")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(KBoundary, 1, 2)
		r.Observe(HOutputsPerRegion, 3)
		tr.DevSpan(KFlush, 0x40, 0, tr.Clock())
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer allocated %.1f/op, want 0 (rings are preallocated)", allocs)
	}
}

// TestHammer16 drives 16 goroutines through thread rings and the shared
// device stripes at once and checks that every event survives well-formed:
// exact counts, no torn kinds, all operand values in the written range,
// and a correctly ordered merge.
func TestHammer16(t *testing.T) {
	const (
		workers   = 16
		perWorker = 2000
	)
	tr := New(Config{ThreadRingCap: perWorker * 2, DeviceRingCap: workers * perWorker})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r := tr.ThreadRing("hammer")
		wg.Add(1)
		go func(w int, r *Ring) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Emit(KLogAppend, uint64(w), uint64(i))
				tr.DevSpan(KFlush, uint64(w)<<32|uint64(i), 0, tr.Clock())
				tr.Observe(HRegionStores, uint64(i))
			}
		}(w, r)
	}
	wg.Wait()

	if got := tr.Count(KLogAppend); got != workers*perWorker {
		t.Fatalf("Count(KLogAppend) = %d, want %d", got, workers*perWorker)
	}
	if got := tr.Count(KFlush); got != workers*perWorker {
		t.Fatalf("Count(KFlush) = %d, want %d", got, workers*perWorker)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("Dropped = %d, want 0 (rings were sized for the load)", d)
	}
	ev := tr.Events()
	if len(ev) != 2*workers*perWorker {
		t.Fatalf("Events = %d, want %d", len(ev), 2*workers*perWorker)
	}
	perTag := map[uint64]int{}
	for i, e := range ev {
		if e.Kind != KLogAppend && e.Kind != KFlush {
			t.Fatalf("torn event kind %v", e.Kind)
		}
		if i > 0 && e.TS < ev[i-1].TS {
			t.Fatalf("merge not ordered at %d", i)
		}
		if e.Kind == KLogAppend {
			if e.A >= workers || e.B >= perWorker {
				t.Fatalf("torn operands %#x %#x", e.A, e.B)
			}
			perTag[e.A]++
		}
	}
	for w := uint64(0); w < workers; w++ {
		if perTag[w] != perWorker {
			t.Fatalf("worker %d: %d events, want %d", w, perTag[w], perWorker)
		}
	}
	if s := tr.Hist(HRegionStores); s.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", s.Count, workers*perWorker)
	}
	if s := tr.Hist(HFlushNS); s.Count != workers*perWorker {
		t.Fatalf("flush hist count = %d, want %d (DevSpan feeds it)", s.Count, workers*perWorker)
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	tr := New(Config{ThreadRingCap: 64, DeviceRingCap: 64})
	r := tr.ThreadRing("ido/t0")
	t0 := r.Clock()
	r.Emit(KLockAcq, 0x5040, 0)
	r.Emit(KBoundary, 0x2001, 3)
	tr.DevSpan(KFlush, 0x40, 0, tr.Clock())
	tr.DevSpan(KFence, 0, 0, tr.Clock())
	r.Span(KFASE, 32, 0, t0)
	r.Emit(KLockRel, 0x5040, 0)

	path := filepath.Join(t.TempDir(), "trace.json")
	n, err := tr.ExportChromeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("exported %d events, want 6", n)
	}
	for _, k := range []Kind{KFlush, KFence, KBoundary} {
		got, err := CountInFile(path, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != int(tr.Count(k)) {
			t.Fatalf("%v: file has %d, tracer counted %d", k, got, tr.Count(k))
		}
	}
	raw, _ := os.ReadFile(path)
	if len(raw) == 0 {
		t.Fatal("empty trace file")
	}
}

func TestHistPercentiles(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 90; i++ {
		tr.Observe(HFenceNS, 100) // bucket 7 (64..127)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(HFenceNS, 4000) // bucket 12 (2048..4095)
	}
	s := tr.Hist(HFenceNS)
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 != 127 {
		t.Fatalf("p50 = %d, want 127 (bucket upper bound)", s.P50)
	}
	if s.P99 != 4095 {
		t.Fatalf("p99 = %d, want 4095", s.P99)
	}
	if s.Mean < 480 || s.Mean > 500 {
		t.Fatalf("mean = %v, want 490", s.Mean)
	}
	if s.Max != 4095 {
		t.Fatalf("max = %d, want 4095", s.Max)
	}
}
