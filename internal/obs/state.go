package obs

// The snapshot layer: cumulative, lock-free reads of everything the
// tracer counts, shaped so a monitoring plane can copy the whole state
// into a caller-owned struct without allocating and diff two copies into
// interval rates. The serving hot path never touches any of this — the
// snapshot reader only performs atomic loads against counters the
// producers were already maintaining.

// HistCounts is the raw cumulative form of one log2 histogram: bucket i
// counts values in [2^(i-1), 2^i), bucket 0 counts zeros. Unlike Summary
// it is closed under subtraction, which is what turns two cumulative
// snapshots into an interval distribution (and interval percentiles).
type HistCounts struct {
	Buckets [65]uint64
	Sum     uint64
}

// Count returns the total number of observations.
func (h *HistCounts) Count() uint64 {
	var n uint64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Mean returns the exact mean, or 0 with no observations.
func (h *HistCounts) Mean() float64 {
	if n := h.Count(); n > 0 {
		return float64(h.Sum) / float64(n)
	}
	return 0
}

// Sub returns the interval histogram cur - prev. Counters are
// monotonic, so a well-ordered pair never underflows; a stale pair
// (prev taken after cur) clamps at zero rather than wrapping.
func (h *HistCounts) Sub(prev *HistCounts) HistCounts {
	var out HistCounts
	for i := range h.Buckets {
		if h.Buckets[i] > prev.Buckets[i] {
			out.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
		}
	}
	if h.Sum > prev.Sum {
		out.Sum = h.Sum - prev.Sum
	}
	return out
}

// Quantile returns the upper bound of the bucket in which quantile q
// (0 < q <= 1) falls — within 2x of the true value, like Summary.
func (h *HistCounts) Quantile(q float64) uint64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want == 0 {
		want = 1
	}
	var cum uint64
	var max uint64
	for i, c := range h.Buckets {
		if c > 0 {
			max = bucketHigh(i)
		}
		cum += c
		if cum >= want {
			return bucketHigh(i)
		}
	}
	return max
}

// Summary condenses the counts; Count, Sum and Mean are exact.
func (h *HistCounts) Summary() Summary {
	s := Summary{Count: h.Count(), Sum: h.Sum}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	for i, c := range h.Buckets {
		if c > 0 {
			s.Max = bucketHigh(i)
		}
	}
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	return s
}

// State is one cumulative snapshot of a tracer: exact per-kind event
// counts, the drop tally, and every metric histogram in raw bucket form.
// Two States subtract into interval rates; one State renders directly
// as cumulative counters.
type State struct {
	Counts  [NumKinds]uint64
	Dropped uint64
	Hists   [NumHists]HistCounts
}

// ReadState fills dst with a cumulative snapshot of the tracer. It is
// lock-free (a bounded pass of atomic loads over the registered rings
// and histograms), safe to call while producers emit, and performs no
// allocation — the 0-allocs/op contract the metrics plane is gated on.
// Counters read per ring are monotonic, so every count in dst is a
// value the tracer actually passed through, though counts of different
// kinds may be skewed by events recorded during the pass. A nil tracer
// zeroes dst.
func (tr *Tracer) ReadState(dst *State) {
	*dst = State{}
	if tr == nil {
		return
	}
	for _, r := range *tr.rings.Load() {
		for k := 0; k < NumKinds; k++ {
			dst.Counts[k] += r.kcount[k].Load()
		}
		dst.Dropped += r.dropped.Load()
	}
	for h := range dst.Hists {
		tr.hists[h].AddTo(&dst.Hists[h])
	}
}
