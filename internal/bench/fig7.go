package bench

import (
	"fmt"
	"math/rand"

	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/stats"
	"github.com/ido-nvm/ido/internal/workload"
)

// Fig7Runtimes are the systems compared on the microbenchmarks (§V-B).
// NVThreads is absent, as in the paper (its page-granularity REDO cannot
// express hand-over-hand locking).
var Fig7Runtimes = []string{"ido", "justdo", "atlas", "mnemosyne"}

// Fig7Structures names the four microbenchmark data structures.
var Fig7Structures = []string{"stack", "queue", "orderedlist", "hashmap"}

// fig7Mixes are the operation mixes per figure: the paper's balanced
// 50/50 mix for all four structures, plus a pop-heavy churn variant
// (30% push / 70% pop) for the two structures whose removal op actually
// unlinks (stack and queue) — it drives the free-list and empty-pop
// paths the balanced mix rarely reaches.
var fig7Mixes = []struct {
	suffix     string
	insertPct  int
	structures []string
}{
	{"", 50, Fig7Structures},
	{" churn (30/70 pop-heavy)", 30, []string{"stack", "queue"}},
}

// RunFig7 regenerates Fig. 7: microbenchmark throughput (Mops/s) as a
// function of thread count for the four shared data structures, with each
// thread repeatedly choosing a random operation (insert/remove for stack
// and queue; get/put on a random key for list and map), plus the
// pop-heavy churn variants.
func RunFig7(o Options) ([]*stats.Figure, error) {
	var out []*stats.Figure
	for _, mix := range fig7Mixes {
		for _, structure := range mix.structures {
			fig := &stats.Figure{
				Title:  "Fig7 " + structure + mix.suffix,
				XLabel: "threads", YLabel: "Mops/s",
			}
			type job struct {
				sp spec
				nt int
			}
			var jobs []job
			for _, sp := range specs(Fig7Runtimes...) {
				for _, nt := range o.Threads {
					jobs = append(jobs, job{sp, nt})
				}
			}
			ops := make([]uint64, len(jobs))
			structure := structure
			err := runPoints(o, len(jobs), func(i int) error {
				j := jobs[i]
				n, err := runMicroPoint(o, j.sp, structure, j.nt, mix.insertPct)
				if err != nil {
					return fmt.Errorf("fig7 %s/%s/%d: %w", structure, j.sp.name, j.nt, err)
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
	}
	return out, nil
}

// Microbenchmark parameters: the ordered list uses a small key range so
// traversals stay reasonably long (the paper's hand-over-hand stress),
// the hash map spreads a larger range over many buckets so bucket lists
// stay short and parallelism is high.
const (
	listKeyRange = 256
	mapKeyRange  = 1 << 12
	mapBuckets   = 1 << 8
)

func runMicroPoint(o Options, sp spec, structure string, nThreads, insertPct int) (uint64, error) {
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, err
	}
	env := &ds.Env{Reg: w.reg, LM: w.lm}
	switch structure {
	case "stack":
		s, _, err := ds.NewStack(env)
		if err != nil {
			return 0, err
		}
		// Prefill so removes usually succeed.
		pre, _ := w.rt.NewThread()
		for i := 0; i < 256; i++ {
			i := i
			pre.Exec(func() { s.Push(pre, uint64(i+1)) })
		}
		return measure(w, nThreads, o.Duration, func(i int, t persist.Thread) func() {
			// Insert/remove only: the non-insert share is all pops.
			gen := workload.NewUniformMix(int64(100+i), 1<<30, insertPct, 100-insertPct)
			return func() {
				if op := gen.Next(); op.Kind == workload.OpInsert {
					s.Push(t, op.Key|1)
				} else {
					s.Pop(t)
				}
			}
		})
	case "queue":
		q, _, err := ds.NewQueue(env)
		if err != nil {
			return 0, err
		}
		pre, _ := w.rt.NewThread()
		for i := 0; i < 256; i++ {
			i := i
			pre.Exec(func() { q.Enqueue(pre, uint64(i+1)) })
		}
		return measure(w, nThreads, o.Duration, func(i int, t persist.Thread) func() {
			gen := workload.NewUniformMix(int64(200+i), 1<<30, insertPct, 100-insertPct)
			return func() {
				if op := gen.Next(); op.Kind == workload.OpInsert {
					q.Enqueue(t, op.Key|1)
				} else {
					q.Dequeue(t)
				}
			}
		})
	case "orderedlist":
		l, _, err := ds.NewList(env)
		if err != nil {
			return 0, err
		}
		pre, _ := w.rt.NewThread()
		for k := uint64(2); k <= listKeyRange; k += 2 {
			k := k
			pre.Exec(func() { l.Put(pre, k, k) })
		}
		return measure(w, nThreads, o.Duration, func(i int, t persist.Thread) func() {
			rng := rand.New(rand.NewSource(int64(300 + i)))
			return func() {
				k := uint64(rng.Intn(listKeyRange)) + 1
				if rng.Intn(2) == 0 {
					l.Put(t, k, k*2)
				} else {
					l.Get(t, k)
				}
			}
		})
	case "hashmap":
		m, _, err := ds.NewHashMap(env, mapBuckets)
		if err != nil {
			return 0, err
		}
		pre, _ := w.rt.NewThread()
		for k := uint64(1); k <= mapKeyRange; k += 2 {
			k := k
			pre.Exec(func() { m.Put(pre, k, k) })
		}
		return measure(w, nThreads, o.Duration, func(i int, t persist.Thread) func() {
			rng := rand.New(rand.NewSource(int64(400 + i)))
			return func() {
				k := uint64(rng.Intn(mapKeyRange)) + 1
				if rng.Intn(2) == 0 {
					m.Put(t, k, k*2)
				} else {
					m.Get(t, k)
				}
			}
		})
	}
	return 0, fmt.Errorf("unknown structure %q", structure)
}
