package bench

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/stats"
	"github.com/ido-nvm/ido/internal/workload"
)

// Fig9Runtimes are the systems whose latency sensitivity the paper plots.
var Fig9Runtimes = []string{"ido", "justdo", "atlas"}

// RunFig9 regenerates Fig. 9: absolute throughput as a function of added
// NVM write latency (a configurable delay after each write-back and
// non-temporal store, §V-E), for the Memcached 32-thread
// insertion-intensive point and the Redis "large" (1M-key) point.
//
// Reproduction note: the paper's knee — iDO/Atlas flat to ~100 ns, JUSTDO
// collapsing at +20 ns — appears here at proportionally higher added
// latency because this simulator's baseline fence cost is several times
// the paper's hardware sfence; the orderings (JUSTDO slowest everywhere,
// losing the most absolute throughput per added nanosecond because it
// issues ~2x the write-backs) are the reproduction targets. See
// EXPERIMENTS.md.
func RunFig9(o Options) ([]*stats.Figure, error) {
	latencies := workload.LatencyPoints()
	if o.Quick {
		latencies = []int{0, 100, 2000}
	}
	mcThreads := 32
	if max := o.Threads[len(o.Threads)-1]; mcThreads > max {
		mcThreads = max
	}
	keyRange := uint64(1 << 15)
	buckets := 1 << 15
	redisRange := uint64(1_000_000)
	if o.Quick {
		keyRange, buckets, redisRange = 1<<10, 1<<10, 10_000
	}

	figMC := &stats.Figure{Title: "Fig9a Memcached (insert-intensive) vs NVM latency",
		XLabel: "added ns", YLabel: "Mops/s"}
	figRD := &stats.Figure{Title: "Fig9b Redis (large) vs NVM latency",
		XLabel: "added ns", YLabel: "Mops/s"}

	type job struct {
		sp spec
		ns int
	}
	var jobs []job
	for _, sp := range specs(Fig9Runtimes...) {
		for _, ns := range latencies {
			jobs = append(jobs, job{sp, ns})
		}
	}
	// Each grid cell measures two worlds (Memcached and Redis).
	opsMC := make([]uint64, len(jobs))
	opsRD := make([]uint64, len(jobs))
	err := runPoints(o, len(jobs), func(i int) error {
		j := jobs[i]
		n, err := runMemcachedPointLat(o, j.sp, mcThreads, keyRange, buckets, j.ns)
		if err != nil {
			return fmt.Errorf("fig9 mc %s/%d: %w", j.sp.name, j.ns, err)
		}
		opsMC[i] = n
		n, err = runRedisPoint(o, j.sp, redisRange, j.ns)
		if err != nil {
			return fmt.Errorf("fig9 redis %s/%d: %w", j.sp.name, j.ns, err)
		}
		opsRD[i] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		figMC.Add(j.sp.name, float64(j.ns), stats.Throughput(opsMC[i], o.Duration))
		figRD.Add(j.sp.name, float64(j.ns), stats.Throughput(opsRD[i], o.Duration))
	}
	fprintf(o.out(), "%s\n%s\n", figMC, figRD)
	return []*stats.Figure{figMC, figRD}, nil
}

func runMemcachedPointLat(o Options, sp spec, nThreads int, keyRange uint64, buckets, extraNS int) (uint64, error) {
	// Same workload as Fig. 5's insertion-intensive mix with the latency
	// knob turned on after the warm-up.
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, err
	}
	return measureMemcached(o, w, nThreads, 50, 0, keyRange, buckets, extraNS)
}
