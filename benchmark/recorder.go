package main

import (
	"math"
	"slices"
)

// latRec records every latency of one goroutine exactly, in nanoseconds.
// loadgen's quantiles are log2-bucket upper bounds (65 535 / 131 071 ns)
// and cannot resolve a change under 2x; this keeps each sample. The
// buffer is allocated once, so add never allocates.
type latRec struct {
	ns      []uint32
	dropped uint64 // samples that arrived after the buffer filled
}

func newLatRec(capacity int) *latRec {
	return &latRec{ns: make([]uint32, 0, capacity)}
}

func (r *latRec) add(ns int64) {
	if len(r.ns) == cap(r.ns) {
		r.dropped++
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32 // 4.29 s; far past the 1 s time-out
	}
	r.ns = append(r.ns, uint32(ns))
}

// dist is a sorted sample set.
type dist []uint32

// mergeDist concatenates and sorts the recorders' samples.
func mergeDist(recs ...*latRec) dist {
	n := 0
	for _, r := range recs {
		n += len(r.ns)
	}
	out := make(dist, 0, n)
	for _, r := range recs {
		out = append(out, r.ns...)
	}
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank quantile: the smallest sample with at
// least q of the samples at or below it. 0 on an empty set.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return float64(d[i])
}

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return float64(d[len(d)-1])
}

// shareOver is the share of samples strictly above limit.
func (d dist) shareOver(limit uint32) float64 {
	if len(d) == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(d, limit+1)
	return float64(len(d)-i) / float64(len(d))
}

// windowed splits every recorder's samples into n equal stretches (the
// samples are in completion order, which at a fixed rate or a fixed op
// count is time order), takes each quantile within every stretch, and
// returns per quantile the median over the stretches. One multi-
// millisecond stall — a noisy neighbour, a burst of queueing — then moves
// one stretch's tail, not the run's.
func windowed(recs []*latRec, n int, qs ...float64) []float64 {
	per := make([][]float64, len(qs))
	chunk := make([]*latRec, len(recs))
	for w := 0; w < n; w++ {
		for i, r := range recs {
			lo, hi := len(r.ns)*w/n, len(r.ns)*(w+1)/n
			chunk[i] = &latRec{ns: r.ns[lo:hi]}
		}
		d := mergeDist(chunk...)
		if len(d) == 0 {
			continue
		}
		for i, q := range qs {
			per[i] = append(per[i], d.quantile(q))
		}
	}
	out := make([]float64, len(qs))
	for i := range qs {
		out[i] = medianF(per[i])
	}
	return out
}

// medianF is the median of a small float sample (mean of the middle two
// when even). It sorts a copy.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
