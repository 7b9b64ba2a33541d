package obs

import (
	"sync"
	"testing"
)

// TestSnapshotWhileEmitting is the -race contract for the snapshot path:
// Count/Dropped/ReadState/Events/Rotate all run concurrently
// with 16 goroutines emitting (and registering rings mid-flight). Under
// the race detector this proves the consistent-read protocol — cursor
// read once, publish words checked — not just absence of panics.
func TestSnapshotWhileEmitting(t *testing.T) {
	tr := New(Config{ThreadRingCap: 1 << 8, DeviceRingCap: 1 << 8})
	const writers = 16
	const perWriter = 2000

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			r := tr.ThreadRing("t/hammer") // registration races the readers too
			for i := 0; i < perWriter; i++ {
				r.Emit(KFlush, uint64(i), 0)
				r.Span(KFASE, uint64(w), 0, r.Clock())
				tr.DevEmit(KNTStore, uint64(i), 0)
				tr.Observe(HReqLatency, uint64(i))
			}
		}(w)
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for rdr := 0; rdr < 4; rdr++ {
		rwg.Add(1)
		go func(rdr int) {
			defer rwg.Done()
			var st State
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rdr {
				case 0:
					tr.ReadState(&st)
				case 1:
					_ = tr.Events()
				case 2:
					_ = tr.Count(KFlush) + tr.Dropped()
				case 3:
					_ = tr.Rotate()
				}
			}
		}(rdr)
	}

	close(start)
	wg.Wait()
	close(stop)
	rwg.Wait()

	// Counters are exact regardless of drops, rotation, and racing reads.
	var st State
	tr.ReadState(&st)
	if got := st.Counts[KFlush]; got != writers*perWriter {
		t.Fatalf("Counts[KFlush] = %d, want %d", got, writers*perWriter)
	}
	if got := tr.Count(KNTStore); got != writers*perWriter {
		t.Fatalf("Count(KNTStore) = %d, want %d", got, writers*perWriter)
	}
	if got := st.Hists[HReqLatency].Count(); got != writers*perWriter {
		t.Fatalf("hist count = %d, want %d", got, writers*perWriter)
	}
}

func TestReadStateMatchesAccessors(t *testing.T) {
	tr := New(Config{ThreadRingCap: 16, DeviceRingCap: 16})
	r := tr.ThreadRing("t/0")
	for i := 0; i < 40; i++ { // overflows the 16-slot ring: drops accrue
		r.Emit(KFence, uint64(i), 0)
		tr.Observe(HFenceNS, uint64(i))
	}
	var st State
	tr.ReadState(&st)
	if st.Counts[KFence] != tr.Count(KFence) || st.Counts[KFence] != 40 {
		t.Fatalf("Counts[KFence] = %d, want %d", st.Counts[KFence], tr.Count(KFence))
	}
	if st.Dropped != tr.Dropped() || st.Dropped != 24 {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, tr.Dropped())
	}
	hs := st.Hists[HFenceNS].Summary()
	ts := tr.Hist(HFenceNS)
	if hs != ts {
		t.Fatalf("HistCounts.Summary = %+v, want %+v", hs, ts)
	}
	// A nil tracer zeroes the destination.
	st.Counts[KFence] = 99
	(*Tracer)(nil).ReadState(&st)
	if st.Counts[KFence] != 0 {
		t.Fatal("nil tracer ReadState did not zero dst")
	}
}

func TestReadStateZeroAlloc(t *testing.T) {
	tr := New(Config{ThreadRingCap: 64, DeviceRingCap: 64})
	r := tr.ThreadRing("t/0")
	r.Emit(KFlush, 1, 2)
	var st State
	if n := testing.AllocsPerRun(100, func() { tr.ReadState(&st) }); n != 0 {
		t.Fatalf("ReadState allocates %v/op, want 0", n)
	}
}

func TestRotateWindows(t *testing.T) {
	tr := New(Config{ThreadRingCap: 8, DeviceRingCap: 8})
	r := tr.ThreadRing("t/0")
	for i := 0; i < 20; i++ { // fill + overflow the first generation
		r.Emit(KFlush, uint64(i), 0)
	}
	win1 := tr.Rotate()
	if len(win1) != 8 {
		t.Fatalf("window 1 = %d events, want 8 (ring cap)", len(win1))
	}
	// After rotation the ring accepts a full fresh window.
	for i := 0; i < 5; i++ {
		r.Emit(KFence, uint64(i), 0)
	}
	win2 := tr.Rotate()
	if len(win2) != 5 {
		t.Fatalf("window 2 = %d events, want 5", len(win2))
	}
	for _, e := range win2 {
		if e.Kind != KFence {
			t.Fatalf("window 2 leaked a %s event from window 1", e.Kind)
		}
	}
	// Cumulative counters span every window.
	if got := tr.Count(KFlush); got != 20 {
		t.Fatalf("Count(KFlush) = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	if got := len(tr.Events()); got != 0 {
		t.Fatalf("Events after Rotate = %d, want 0", got)
	}
}

func TestHistCountsSubAndQuantile(t *testing.T) {
	tr := New(Config{ThreadRingCap: 8, DeviceRingCap: 8})
	for i := 0; i < 100; i++ {
		tr.Observe(HReqLatency, 100) // bucket 7: (64,128]
	}
	var prev State
	tr.ReadState(&prev)
	for i := 0; i < 100; i++ {
		tr.Observe(HReqLatency, 5000) // bucket 13: (4096,8192]
	}
	var cur State
	tr.ReadState(&cur)

	d := cur.Hists[HReqLatency].Sub(&prev.Hists[HReqLatency])
	if d.Count() != 100 {
		t.Fatalf("interval count = %d, want 100", d.Count())
	}
	if d.Sum != 100*5000 {
		t.Fatalf("interval sum = %d, want %d", d.Sum, 100*5000)
	}
	// The interval distribution holds only the new values: every quantile
	// lands in the 5000 bucket even though the cumulative p50 would not.
	if q := d.Quantile(0.50); q != 8191 {
		t.Fatalf("interval p50 = %d, want 8191", q)
	}
	if q := cur.Hists[HReqLatency].Quantile(0.50); q != 127 {
		t.Fatalf("cumulative p50 = %d, want 127", q)
	}
}
