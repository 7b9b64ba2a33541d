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
			abr := make([]float64, len(jobs))
			structure := structure
			err := runPoints(o, len(jobs), func(i int) error {
				j := jobs[i]
				n, a, err := runMicroPoint(o, j.sp, structure, j.nt, mix.insertPct)
				if err != nil {
					return fmt.Errorf("fig7 %s/%s/%d: %w", structure, j.sp.name, j.nt, err)
				}
				ops[i], abr[i] = n, a
				return nil
			})
			if err != nil {
				return nil, err
			}
			// Mnemosyne's throughput is only meaningful next to how often
			// its transactions re-execute.
			aborts := "mnemosyne aborts/commit"
			for i, j := range jobs {
				fig.Add(j.sp.name, float64(j.nt), stats.Throughput(ops[i], o.Duration))
				if j.sp.name == "mnemosyne" {
					aborts += fmt.Sprintf("  %d:%.3f", j.nt, abr[i])
				}
			}
			fprintf(o.out(), "%s%s\n\n", fig, aborts)
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

// runMicroPoint measures one Fig. 7 point: the operations completed, and
// the runtime's aborts per committed FASE over the measured phase (0 for
// every runtime that never re-executes).
func runMicroPoint(o Options, sp spec, structure string, nThreads, insertPct int) (ops uint64, abortsPerCommit float64, err error) {
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, 0, err
	}
	setup, err := microSetup(w, structure, insertPct)
	if err != nil {
		return 0, 0, err
	}
	before := w.rt.Stats()
	if ops, err = measure(w, nThreads, o.Duration, setup); err != nil {
		return 0, 0, err
	}
	after := w.rt.Stats()
	if commits := after.FASEs - before.FASEs; commits > 0 {
		abortsPerCommit = float64(after.Aborts-before.Aborts) / float64(commits)
	}
	return ops, abortsPerCommit, nil
}

// microSetup builds and prefills one structure in w and returns measure's
// per-worker op builder for it.
func microSetup(w *world, structure string, insertPct int) (func(i int, t persist.Thread) func(), error) {
	env := &ds.Env{Reg: w.reg, LM: w.lm}
	switch structure {
	case "stack":
		s, _, err := ds.NewStack(env)
		if err != nil {
			return nil, err
		}
		// Prefill so removes usually succeed.
		pre, _ := w.rt.NewThread()
		for i := 0; i < 256; i++ {
			i := i
			pre.Exec(func() { s.Push(pre, uint64(i+1)) })
		}
		return func(i int, t persist.Thread) func() {
			// Insert/remove only: the non-insert share is all pops.
			gen := workload.NewUniformMix(int64(100+i), 1<<30, insertPct, 100-insertPct)
			return func() {
				if op := gen.Next(); op.Kind == workload.OpInsert {
					s.Push(t, op.Key|1)
				} else {
					s.Pop(t)
				}
			}
		}, nil
	case "queue":
		q, _, err := ds.NewQueue(env)
		if err != nil {
			return nil, err
		}
		pre, _ := w.rt.NewThread()
		for i := 0; i < 256; i++ {
			i := i
			pre.Exec(func() { q.Enqueue(pre, uint64(i+1)) })
		}
		return func(i int, t persist.Thread) func() {
			gen := workload.NewUniformMix(int64(200+i), 1<<30, insertPct, 100-insertPct)
			return func() {
				if op := gen.Next(); op.Kind == workload.OpInsert {
					q.Enqueue(t, op.Key|1)
				} else {
					q.Dequeue(t)
				}
			}
		}, nil
	case "orderedlist":
		l, _, err := ds.NewList(env)
		if err != nil {
			return nil, err
		}
		pre, _ := w.rt.NewThread()
		for k := uint64(2); k <= listKeyRange; k += 2 {
			k := k
			pre.Exec(func() { l.Put(pre, k, k) })
		}
		return func(i int, t persist.Thread) func() {
			rng := rand.New(rand.NewSource(int64(300 + i)))
			return func() {
				k := uint64(rng.Intn(listKeyRange)) + 1
				if rng.Intn(2) == 0 {
					l.Put(t, k, k*2)
				} else {
					l.Get(t, k)
				}
			}
		}, nil
	case "hashmap":
		m, _, err := ds.NewHashMap(env, mapBuckets)
		if err != nil {
			return nil, err
		}
		pre, _ := w.rt.NewThread()
		for k := uint64(1); k <= mapKeyRange; k += 2 {
			k := k
			pre.Exec(func() { m.Put(pre, k, k) })
		}
		return func(i int, t persist.Thread) func() {
			rng := rand.New(rand.NewSource(int64(400 + i)))
			return func() {
				k := uint64(rng.Intn(mapKeyRange)) + 1
				if rng.Intn(2) == 0 {
					m.Put(t, k, k*2)
				} else {
					m.Get(t, k)
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown structure %q", structure)
}
