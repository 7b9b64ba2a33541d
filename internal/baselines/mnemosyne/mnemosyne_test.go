package mnemosyne_test

import (
	"sync"
	"testing"

	"github.com/ido-nvm/ido/internal/baselines/mnemosyne"
	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// TestContendedStackCompletes: four goroutines on one stack conflict on
// every transaction (each push and pop reads and writes the top word).
// With immediate retry this livelocked at a few commits per scheduler
// time slice; with backoff every push/pop pair completes and aborts stay
// a small multiple of commits. The device charges the figures' flush,
// fence and NT-store costs, so a commit holds its stripe locks for
// microseconds, as in the benchmark.
func TestContendedStackCompletes(t *testing.T) {
	const (
		workers = 4
		pairs   = 150
		// Generous: a conflict-free run is 0; the livelock this guards
		// against runs at hundreds of aborts per commit.
		maxAbortsPerCommit = 10
	)
	reg := region.Create(1<<22, nvm.Config{FlushNS: 50, FenceNS: 400, NTStoreNS: 150})
	env := &ds.Env{Reg: reg, LM: locks.NewManager(reg)}
	rt := mnemosyne.New()
	if err := rt.Attach(reg, env.LM); err != nil {
		t.Fatal(err)
	}
	s, _, err := ds.NewStack(env)
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]persist.Thread, workers)
	for g := range threads {
		if threads[g], err = rt.NewThread(); err != nil {
			t.Fatal(err)
		}
	}

	sums := make([]uint64, workers)
	var wg sync.WaitGroup
	for g, th := range threads {
		wg.Add(1)
		go func(g int, th persist.Thread) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				th.Exec(func() { s.Push(th, uint64(g*pairs+i+1)) })
				var v uint64
				var ok bool
				th.Exec(func() { v, ok = s.Pop(th) })
				if !ok {
					t.Errorf("goroutine %d: pop %d found the stack empty after its own push", g, i)
					return
				}
				sums[g] += v
			}
		}(g, th)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var got, want uint64
	for g := range sums {
		got += sums[g]
	}
	for v := uint64(1); v <= workers*pairs; v++ {
		want += v
	}
	if got != want {
		t.Fatalf("popped values sum to %d, pushed %d", got, want)
	}
	depth := 0
	s.Walk(func(uint64) { depth++ })
	if depth != 0 {
		t.Fatalf("stack holds %d values after equal pushes and pops", depth)
	}
	st := rt.Stats()
	if st.FASEs != 2*workers*pairs {
		t.Fatalf("%d commits, want %d", st.FASEs, 2*workers*pairs)
	}
	ratio := float64(st.Aborts) / float64(st.FASEs)
	t.Logf("%d commits, %d aborts (%.2f per commit)", st.FASEs, st.Aborts, ratio)
	if ratio > maxAbortsPerCommit {
		t.Fatalf("%.2f aborts per commit, want at most %d", ratio, maxAbortsPerCommit)
	}
}
