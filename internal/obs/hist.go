package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// HistKind names one of the tracer's metric histograms. All histograms
// use power-of-two buckets: value v lands in bucket bits.Len64(v), i.e.
// bucket i holds values in [2^(i-1), 2^i). They answer the paper's §V
// questions — how expensive is one write-back or fence, how wide is a
// region's output set, how much log does one FASE write, how long does a
// region run — as distributions rather than single totals.
type HistKind int

// Tracer histograms.
const (
	// HFlushNS is the observed latency of each cache-line write-back.
	HFlushNS HistKind = iota
	// HFenceNS is the observed stall of each persist fence.
	HFenceNS
	// HOutputsPerRegion is the logged output-set size at each boundary.
	HOutputsPerRegion
	// HLogBytesPerFASE is the log payload written during each FASE.
	HLogBytesPerFASE
	// HRegionNS is the wall time of each completed idempotent region.
	HRegionNS
	// HRegionStores is the tracked-store count of each completed region.
	HRegionStores
	// HReqLatency is the nanoseconds from a network request's parse
	// completion to its response being handed to the connection writer —
	// the server-side component of end-to-end request latency.
	HReqLatency

	nHist
)

// NumHists is the number of histogram kinds.
const NumHists = int(nHist)

func (h HistKind) String() string {
	switch h {
	case HFlushNS:
		return "flush-ns"
	case HFenceNS:
		return "fence-ns"
	case HOutputsPerRegion:
		return "outputs/region"
	case HLogBytesPerFASE:
		return "log-bytes/fase"
	case HRegionNS:
		return "region-ns"
	case HRegionStores:
		return "stores/region"
	case HReqLatency:
		return "req-latency-ns"
	default:
		return fmt.Sprintf("HistKind(%d)", int(h))
	}
}

// Histogram is a lock-free log2 histogram: bucket i counts values in
// [2^(i-1), 2^i); bucket 0 counts zeros. The zero value is empty, and
// AddTo may run while other goroutines Observe.
type Histogram struct {
	buckets [65]atomic.Uint64
	sum     atomic.Uint64
}

// Observe records v.
func (hh *Histogram) Observe(v uint64) {
	hh.buckets[bits.Len64(v)].Add(1)
	hh.sum.Add(v)
}

// AddTo adds the histogram's current buckets and sum into c, so several
// histograms read into one HistCounts merge.
func (hh *Histogram) AddTo(c *HistCounts) {
	for i := range c.Buckets {
		c.Buckets[i] += hh.buckets[i].Load()
	}
	c.Sum += hh.sum.Load()
}

// Observe feeds v into histogram h.
func (tr *Tracer) Observe(h HistKind, v uint64) {
	tr.hists[h].Observe(v)
}

// Summary condenses one histogram: Count and Sum are exact; the
// percentiles are the upper bound of the bucket in which the percentile
// falls (so within 2× of the true value).
type Summary struct {
	Count uint64
	Sum   uint64
	Mean  float64
	P50   uint64
	P90   uint64
	P99   uint64
	Max   uint64 // upper bound of the highest nonempty bucket
}

// bucketHigh is the largest value bucket i can hold.
func bucketHigh(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Hist summarizes histogram h.
func (tr *Tracer) Hist(h HistKind) Summary {
	var c HistCounts
	tr.hists[h].AddTo(&c)
	return c.Summary()
}
