package bench

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/stats"
	"github.com/ido-nvm/ido/internal/workload"
)

// Fig6Runtimes are the systems compared on Redis in the paper.
var Fig6Runtimes = []string{"origin", "ido", "justdo", "atlas", "nvml"}

// Fig6Ranges are the paper's key-range sizes: 10K, 100K, and 1M.
var Fig6Ranges = []uint64{10_000, 100_000, 1_000_000}

// RunFig6 regenerates Fig. 6: single-threaded Redis throughput under the
// lru_test-style workload (80% GET / 20% SET, power-law keys) for the
// three database sizes.
func RunFig6(o Options) (*stats.Figure, error) {
	ranges := Fig6Ranges
	if o.Quick {
		ranges = []uint64{1_000, 10_000}
	}
	fig := &stats.Figure{Title: "Fig6 Redis throughput by key range", XLabel: "key range", YLabel: "Mops/s"}
	type job struct {
		sp spec
		kr uint64
	}
	var jobs []job
	for _, sp := range specs(Fig6Runtimes...) {
		for _, kr := range ranges {
			jobs = append(jobs, job{sp, kr})
		}
	}
	ops := make([]uint64, len(jobs))
	err := runPoints(o, len(jobs), func(i int) error {
		j := jobs[i]
		n, err := runRedisPoint(o, j.sp, j.kr, 0)
		if err != nil {
			return fmt.Errorf("fig6 %s/%d: %w", j.sp.name, j.kr, err)
		}
		ops[i] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		fig.Add(j.sp.name, float64(j.kr), stats.Throughput(ops[i], o.Duration))
	}
	fprintf(o.out(), "%s\n", fig)
	return fig, nil
}

func runRedisPoint(o Options, sp spec, keyRange uint64, extraNS int) (uint64, error) {
	// Warm with zero added latency; the Fig. 9 knob applies to the
	// measured interval only.
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, err
	}
	env := &redis.Env{Reg: w.reg}
	// Redis keeps its dict load factor near one.
	buckets := int(keyRange)
	if buckets < 64 {
		buckets = 64
	}
	db, _, err := redis.New(env, buckets)
	if err != nil {
		return 0, err
	}
	// Preload half the key range so gets mostly hit, as lru_test does.
	warm, err := w.rt.NewThread()
	if err != nil {
		return 0, err
	}
	warmN := keyRange / 2
	if o.Quick {
		warmN = keyRange / 8
	}
	for k := uint64(1); k <= warmN; k++ {
		k := k
		warm.Exec(func() { db.Set(warm, k, k) })
	}
	w.reg.Dev.SetExtraLatency(extraNS)
	// Redis is single threaded: one server worker.
	return measure(w, 1, o.Duration, func(i int, t persist.Thread) func() {
		gen := workload.NewPowerLaw(int64(7+i), keyRange, 20)
		return func() {
			op := gen.Next()
			if op.Kind == workload.OpInsert {
				db.Set(t, op.Key, op.Val)
			} else {
				db.Get(t, op.Key)
			}
		}
	})
}
