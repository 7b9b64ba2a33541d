package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestQuantilesMatchSortedReference holds the exact recorder to a sorted
// copy of what was put in: every quantile is a sample, the nearest-rank
// one.
func TestQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 9973} {
		a, b := newLatRec(n), newLatRec(n)
		var ref []uint32
		for i := 0; i < n; i++ {
			v := int64(rng.ExpFloat64() * 50000)
			ref = append(ref, uint32(v))
			if i%2 == 0 {
				a.add(v)
			} else {
				b.add(v)
			}
		}
		slices.Sort(ref)
		d := mergeDist(a, b)
		if len(d) != n {
			t.Fatalf("n=%d: merged %d samples", n, len(d))
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q*float64(n))) - 1
			rank = min(max(rank, 0), n-1)
			if got, want := d.quantile(q), float64(ref[rank]); got != want {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
		if d.max() != float64(ref[n-1]) {
			t.Errorf("n=%d: max %v, want %v", n, d.max(), ref[n-1])
		}
	}
}

func TestRecorderBoundsAndClamps(t *testing.T) {
	r := newLatRec(2)
	r.add(-5)
	r.add(1 << 40)
	r.add(7) // no room left
	if r.ns[0] != 0 || r.ns[1] != math.MaxUint32 || r.dropped != 1 || len(r.ns) != 2 {
		t.Fatalf("recorder holds %v, dropped %d", r.ns, r.dropped)
	}
	if got := (dist{1, 2, 3, 1000, 2000}).shareOver(3); got != 0.4 {
		t.Fatalf("shareOver = %v, want 0.4", got)
	}
}

// TestWindowedIgnoresOneBadStretch is the reason the reported percentiles
// are medians over stretches: a stall confined to one stretch moves the
// whole-run p99 and leaves the windowed one alone.
func TestWindowedIgnoresOneBadStretch(t *testing.T) {
	r := newLatRec(10000)
	for i := 0; i < 10000; i++ {
		v := int64(100 + i%50)
		if i >= 3000 && i < 3300 { // 3 % of the run, all in the fourth stretch
			v = 90000
		}
		r.add(v)
	}
	if whole := mergeDist(r).quantile(0.99); whole != 90000 {
		t.Fatalf("whole-run p99 = %v, want the stall", whole)
	}
	if w := windowed([]*latRec{r}, 10, 0.5, 0.99); w[0] > 150 || w[1] > 150 {
		t.Fatalf("windowed p50/p99 = %v, want the quiet stretches' values", w)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the driver judges spreads by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10.5, 2, 7, 7, 3}, 2.5, 8.75},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := medianF([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
