package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/stats"
)

// Table1Result is one cell of Table I: the ratio of Atlas recovery time
// to iDO recovery time after killing the microbenchmark at a given time.
type Table1Result struct {
	Structure string
	KillTime  time.Duration
	AtlasNS   int64
	IDONS     int64
	Ratio     float64
}

// Table1KillTimes returns the kill-time sweep. The paper kills after
// 1-50 s; the simulator runs ~100x slower per op, so the default sweep is
// scaled down while preserving the growth trend (EXPERIMENTS.md).
func Table1KillTimes(quick bool) []time.Duration {
	if quick {
		return []time.Duration{20 * time.Millisecond, 60 * time.Millisecond}
	}
	return []time.Duration{
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		750 * time.Millisecond, 1000 * time.Millisecond, 1250 * time.Millisecond,
	}
}

// RunTable1 regenerates Table I: run each microbenchmark for the kill
// time under (a) iDO and (b) Atlas with retained logs, SIGKILL the run
// via crash injection, crash the device, reattach, and time each system's
// recovery. Atlas must scan and order every retained log record; iDO
// re-acquires a handful of locks and resumes a handful of regions, so the
// ratio grows with run length.
func RunTable1(o Options) ([]Table1Result, error) {
	structures := Fig7Structures
	threads := 8
	if o.Quick {
		threads = 4
	}
	var out []Table1Result
	for _, structure := range structures {
		for _, kill := range Table1KillTimes(o.Quick) {
			idoNS, err := recoveryTime(o, "ido", structure, threads, kill)
			if err != nil {
				return nil, fmt.Errorf("table1 ido/%s (seed %d): %w", structure, o.seed(), err)
			}
			atlasNS, err := recoveryTime(o, "atlas-retain", structure, threads, kill)
			if err != nil {
				return nil, fmt.Errorf("table1 atlas/%s (seed %d): %w", structure, o.seed(), err)
			}
			r := Table1Result{
				Structure: structure,
				KillTime:  kill,
				AtlasNS:   atlasNS,
				IDONS:     idoNS,
			}
			if idoNS > 0 {
				r.Ratio = float64(atlasNS) / float64(idoNS)
			}
			out = append(out, r)
		}
	}
	printTable1(o, out)
	return out, nil
}

// crashSeedFor derives a distinct, replayable settle seed for one data
// point from the run seed (splitmix-style finalizer): the Table I error
// messages name the run seed, and the same Options replay the same
// adversarial settle at every data point.
func crashSeedFor(seed int64, rtName, structure string, kill time.Duration) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	for _, s := range []string{rtName, structure} {
		for _, b := range []byte(s) {
			x = (x ^ uint64(b)) * 0x9e3779b97f4a7c15
		}
	}
	x ^= uint64(kill.Nanoseconds())
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int64(x)
}

// recoveryTime runs the workload, kills it, and times recovery.
func recoveryTime(o Options, rtName, structure string, threads int, kill time.Duration) (int64, error) {
	sp := mkSpec(rtName)
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, err
	}
	env := &ds.Env{Reg: w.reg, LM: w.lm}

	var op func(t persist.Thread, rng *rand.Rand)
	switch structure {
	case "stack":
		s, _, err := ds.NewStack(env)
		if err != nil {
			return 0, err
		}
		op = func(t persist.Thread, rng *rand.Rand) {
			if rng.Intn(2) == 0 {
				s.Push(t, rng.Uint64()|1)
			} else {
				s.Pop(t)
			}
		}
	case "queue":
		q, _, err := ds.NewQueue(env)
		if err != nil {
			return 0, err
		}
		op = func(t persist.Thread, rng *rand.Rand) {
			if rng.Intn(2) == 0 {
				q.Enqueue(t, rng.Uint64()|1)
			} else {
				q.Dequeue(t)
			}
		}
	case "orderedlist":
		l, _, err := ds.NewList(env)
		if err != nil {
			return 0, err
		}
		op = func(t persist.Thread, rng *rand.Rand) {
			k := uint64(rng.Intn(listKeyRange)) + 1
			if rng.Intn(2) == 0 {
				l.Put(t, k, k)
			} else {
				l.Get(t, k)
			}
		}
	case "hashmap":
		m, _, err := ds.NewHashMap(env, mapBuckets)
		if err != nil {
			return 0, err
		}
		op = func(t persist.Thread, rng *rand.Rand) {
			k := uint64(rng.Intn(mapKeyRange)) + 1
			if rng.Intn(2) == 0 {
				m.Put(t, k, k)
			} else {
				m.Get(t, k)
			}
		}
	default:
		return 0, fmt.Errorf("unknown structure %q", structure)
	}

	// Run workers until the kill time, then pull the plug. The device's
	// injection is armed (with an unreachable budget) BEFORE the workers
	// start so lock waiters use the crash-aware spin path;
	// TriggerLocalCrash then kills every thread at its next memory access
	// or lock-spin check, and Crash disarms the device again.
	done := make(chan struct{}, threads)
	ths := make([]persist.Thread, threads)
	for i := range ths {
		t, err := w.rt.NewThread()
		if err != nil {
			return 0, err
		}
		ths[i] = t
	}
	w.reg.Dev.ArmLocalCrash(1 << 62)
	for i := 0; i < threads; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
				}
			}()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			t := ths[i]
			for {
				t.Exec(func() { op(t, rng) })
			}
		}(i)
	}
	time.Sleep(kill)
	w.reg.Dev.TriggerLocalCrash() // SIGKILL
	for i := 0; i < threads; i++ {
		<-done
	}
	w.reg.Dev.Crash(nvm.CrashRandom, rand.New(rand.NewSource(crashSeedFor(o.seed(), rtName, structure, kill))))

	// Process restart: reattach and recover under the same system.
	reg2, err := region.Attach(w.reg.Dev)
	if err != nil {
		return 0, err
	}
	lm2 := locks.NewManager(reg2)
	start := time.Now()
	switch rtName {
	case "ido":
		rt2 := core.New(core.DefaultConfig())
		if err := rt2.Attach(reg2, lm2); err != nil {
			return 0, err
		}
		rr := persist.NewResumeRegistry()
		ds.RegisterAll(rr, &ds.Env{Reg: reg2, LM: lm2})
		if _, err := rt2.Recover(rr); err != nil {
			return 0, err
		}
	case "atlas-retain":
		rt2 := atlas.New(atlas.Config{Retain: true})
		if err := rt2.Attach(reg2, lm2); err != nil {
			return 0, err
		}
		if _, err := rt2.Recover(nil); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("table1 does not time %q", rtName)
	}
	return time.Since(start).Nanoseconds(), nil
}

func printTable1(o Options, rows []Table1Result) {
	out := o.out()
	fprintf(out, "Table I: recovery time ratio (Atlas / iDO) by kill time\n")
	var tb stats.Table
	tb.AddRow("structure", "kill", "atlas(ms)", "ido(ms)", "ratio")
	for _, r := range rows {
		tb.AddRow(r.Structure, r.KillTime.String(),
			fmt.Sprintf("%.3f", float64(r.AtlasNS)/1e6),
			fmt.Sprintf("%.3f", float64(r.IDONS)/1e6),
			fmt.Sprintf("%.1f", r.Ratio))
	}
	fprintf(out, "%s\n", tb.String())
}
