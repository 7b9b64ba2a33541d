package bench

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/stats"
	"github.com/ido-nvm/ido/internal/workload"
)

// Fig5Runtimes are the systems compared on Memcached in the paper.
var Fig5Runtimes = []string{"origin", "ido", "justdo", "atlas", "mnemosyne", "nvthreads"}

// RunFig5 regenerates Fig. 5: Memcached throughput (Mops/s) as a function
// of thread count, for the insertion-intensive (50% set / 50% get) and
// search-intensive (10% set / 90% get) memaslap-style workloads, with
// uniformly distributed 16-byte keys and 8-byte values. A third,
// delete-heavy mix (40% set / 40% get / 20% delete) exercises the
// unchain + LRU-unlink + count FASEs that the paper's two mixes never
// reach.
func RunFig5(o Options) ([]*stats.Figure, error) {
	mixes := []struct {
		title     string
		insertPct int
		deletePct int
	}{
		{"Fig5a Memcached insertion-intensive (50/50)", 50, 0},
		{"Fig5b Memcached search-intensive (10/90)", 10, 0},
		{"Fig5c Memcached delete-heavy (40/40/20)", 40, 20},
	}
	// memcached grows its hash power to keep the load factor near one;
	// size the table to the key range accordingly.
	keyRange := uint64(1 << 15)
	buckets := 1 << 15
	if o.Quick {
		keyRange = 1 << 10
		buckets = 1 << 10
	}
	var out []*stats.Figure
	sps := specs(Fig5Runtimes...)
	for _, mix := range mixes {
		fig := &stats.Figure{Title: mix.title, XLabel: "threads", YLabel: "Mops/s"}
		type job struct {
			sp spec
			nt int
		}
		var jobs []job
		for _, sp := range sps {
			for _, nt := range o.Threads {
				jobs = append(jobs, job{sp, nt})
			}
		}
		ops := make([]uint64, len(jobs))
		err := runPoints(o, len(jobs), func(i int) error {
			j := jobs[i]
			n, err := runMemcachedPoint(o, j.sp, j.nt, mix.insertPct, mix.deletePct, keyRange, buckets)
			if err != nil {
				return fmt.Errorf("fig5 %s/%d: %w", j.sp.name, j.nt, err)
			}
			ops[i] = n
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, j := range jobs {
			fig.Add(j.sp.name, float64(j.nt), stats.Throughput(ops[i], o.Duration))
		}
		fprintf(o.out(), "%s\n", fig)
		out = append(out, fig)
	}
	return out, nil
}

func runMemcachedPoint(o Options, sp spec, nThreads, insertPct, deletePct int, keyRange uint64, buckets int) (uint64, error) {
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, err
	}
	return measureMemcached(o, w, nThreads, insertPct, deletePct, keyRange, buckets, 0)
}

// measureMemcached builds a warmed cache in w and measures the memaslap
// mix; shared by Fig. 5 and Fig. 9 (extraNS is applied after the warm-up).
func measureMemcached(o Options, w *world, nThreads, insertPct, deletePct int, keyRange uint64, buckets, extraNS int) (uint64, error) {
	env := &memcache.Env{Reg: w.reg, LM: w.lm}
	cache, _, err := memcache.New(env, buckets)
	if err != nil {
		return 0, err
	}
	// Warm the cache so searches mostly hit, as memaslap does.
	warm, err := w.rt.NewThread()
	if err != nil {
		return 0, err
	}
	warmN := keyRange / 2
	if o.Quick {
		warmN = keyRange / 4
	}
	for k := uint64(1); k <= warmN; k++ {
		k := k
		warm.Exec(func() { cache.Set(warm, k, k^0x5A5A, k) })
	}
	w.reg.Dev.SetExtraLatency(extraNS)
	return measure(w, nThreads, o.Duration, func(i int, t persist.Thread) func() {
		gen := workload.NewUniformMix(int64(1000+i), keyRange, insertPct, deletePct)
		return func() {
			op := gen.Next()
			k0, k1 := op.Key, op.Key^0x5A5A
			switch op.Kind {
			case workload.OpInsert:
				cache.Set(t, k0, k1, op.Val)
			case workload.OpDelete:
				cache.Delete(t, k0, k1)
			default:
				cache.Get(t, k0, k1)
			}
		}
	})
}
