package bench

import (
	"fmt"
	"math/rand"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/stats"
	"github.com/ido-nvm/ido/internal/vm"
)

// Fig8Benchmarks are the six benchmarks whose region characteristics the
// paper reports.
var Fig8Benchmarks = []string{"stack", "queue", "orderedlist", "hashmap", "memcached", "redis"}

// Fig8Result carries one benchmark's dynamic region statistics.
type Fig8Result struct {
	Name string
	// StoresCDF[i] is the fraction of dynamic regions with <= i stores.
	StoresCDF []float64
	// LiveInCDF[i] is the fraction of dynamic regions logging <= i
	// registers.
	LiveInCDF []float64
	Regions   uint64
	// What the log protocol costs the kernel's calls: persist fences per
	// call, and regions and logged bytes per FASE.
	FencesPerCall, RegionsPerFASE, LoggedBytesPerFASE float64
}

// RunFig8 regenerates Fig. 8: the benchmark kernels are compiled by the
// iDO compiler pipeline and executed in the VM (the simulation's Pin),
// which counts stores and logged live-in registers per dynamic
// idempotent region.
func RunFig8(o Options) ([]Fig8Result, error) {
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		return nil, err
	}
	iters := 4000
	if o.Quick {
		iters = 400
	}
	var out []Fig8Result
	for _, name := range Fig8Benchmarks {
		cfg := nvmConfig(1<<26, 0)
		cfg.Tracer = o.Tracer
		reg := region.Create(1<<26, cfg)
		lm := locks.NewManager(reg)
		m := vm.New(reg, lm, prog, vm.ModeIDO)
		fences, err := runFig8Workload(m, reg, lm, name, iters)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", name, err)
		}
		s := m.Stats()
		r := Fig8Result{
			Name:               name,
			StoresCDF:          stats.CDF(s.StoresPerRegion[:]),
			LiveInCDF:          stats.CDF(s.OutputsPerRegion[:]),
			Regions:            s.Regions,
			FencesPerCall:      float64(fences) / float64(iters),
			RegionsPerFASE:     float64(s.Regions) / float64(s.FASEs),
			LoggedBytesPerFASE: float64(s.LoggedBytes) / float64(s.FASEs),
		}
		out = append(out, r)
	}
	printFig8(o, out)
	return out, nil
}

// runFig8Workload runs iters calls of the named benchmark's kernels and
// returns the persist fences those calls (not the set-up) paid.
func runFig8Workload(m *vm.Machine, reg *region.Region, lm *locks.Manager, name string, iters int) (fences uint64, err error) {
	th, err := m.NewThread()
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(99))
	call := func(fn string, args ...uint64) error {
		before := reg.Dev.Stats().Fences
		_, err := th.Call(fn, args...)
		fences += reg.Dev.Stats().Fences - before
		return err
	}
	switch name {
	case "stack":
		stk, err := irprog.NewStack(reg, lm)
		if err != nil {
			return 0, err
		}
		for i := 0; i < iters; i++ {
			if rng.Intn(2) == 0 {
				if err := call("stack_push", stk, uint64(i+1)); err != nil {
					return 0, err
				}
			} else if err := call("stack_pop", stk); err != nil {
				return 0, err
			}
		}
	case "queue":
		q, err := irprog.NewQueue(reg, lm)
		if err != nil {
			return 0, err
		}
		for i := 0; i < iters; i++ {
			if rng.Intn(2) == 0 {
				if err := call("queue_enq", q, uint64(i+1)); err != nil {
					return 0, err
				}
			} else if err := call("queue_deq", q); err != nil {
				return 0, err
			}
		}
	case "orderedlist":
		l, err := irprog.NewList(reg, lm)
		if err != nil {
			return 0, err
		}
		for i := 0; i < iters; i++ {
			k := uint64(rng.Intn(64)) + 1
			if rng.Intn(2) == 0 {
				if err := call("list_insert", l, k, k); err != nil {
					return 0, err
				}
			} else if err := call("list_get", l, k); err != nil {
				return 0, err
			}
		}
	case "hashmap":
		mp, err := irprog.NewMap(reg, lm, 16)
		if err != nil {
			return 0, err
		}
		for i := 0; i < iters; i++ {
			k := uint64(rng.Intn(512)) + 1
			if rng.Intn(2) == 0 {
				if err := call("map_put", mp, k, k); err != nil {
					return 0, err
				}
			} else if err := call("map_get", mp, k); err != nil {
				return 0, err
			}
		}
	case "memcached":
		tb, err := irprog.NewKVTable(reg, lm, 64, true)
		if err != nil {
			return 0, err
		}
		for i := 0; i < iters; i++ {
			k := uint64(rng.Intn(512)) + 1
			if rng.Intn(2) == 0 {
				if err := call("mc_set", tb, k, k); err != nil {
					return 0, err
				}
			} else if err := call("mc_get", tb, k); err != nil {
				return 0, err
			}
		}
	case "redis":
		tb, err := irprog.NewKVTable(reg, lm, 64, false)
		if err != nil {
			return 0, err
		}
		for i := 0; i < iters; i++ {
			k := uint64(rng.Intn(512)) + 1
			if rng.Intn(5) == 0 {
				if err := call("redis_set", tb, k, k); err != nil {
					return 0, err
				}
			} else if err := call("redis_get", tb, k); err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("unknown benchmark %q", name)
	}
	return fences, nil
}

func printFig8(o Options, results []Fig8Result) {
	out := o.out()
	fprintf(out, "Fig8 (top): cumulative %% of dynamic regions with <= N stores\n")
	var tb stats.Table
	tb.AddRow("benchmark", "N=0", "N=1", "N=2", "N=4", "N=8", "regions")
	for _, r := range results {
		tb.AddRow(r.Name,
			pct(r.StoresCDF, 0), pct(r.StoresCDF, 1), pct(r.StoresCDF, 2),
			pct(r.StoresCDF, 4), pct(r.StoresCDF, 8), fmt.Sprintf("%d", r.Regions))
	}
	fprintf(out, "%s\n", tb.String())
	fprintf(out, "Fig8 (bottom): cumulative %% of dynamic regions logging <= N live-in registers\n")
	var tb2 stats.Table
	tb2.AddRow("benchmark", "N=0", "N=1", "N=2", "N=4", "N=8")
	for _, r := range results {
		tb2.AddRow(r.Name,
			pct(r.LiveInCDF, 0), pct(r.LiveInCDF, 1), pct(r.LiveInCDF, 2),
			pct(r.LiveInCDF, 4), pct(r.LiveInCDF, 8))
	}
	fprintf(out, "%s\n", tb2.String())
	fprintf(out, "Fig8 (cost): what the iDO log costs the compiled kernels\n")
	var tb3 stats.Table
	tb3.AddRow("benchmark", "fences/call", "regions/FASE", "logged B/FASE")
	for _, r := range results {
		tb3.AddRow(r.Name, fmt.Sprintf("%.2f", r.FencesPerCall),
			fmt.Sprintf("%.2f", r.RegionsPerFASE), fmt.Sprintf("%.1f", r.LoggedBytesPerFASE))
	}
	fprintf(out, "%s\n", tb3.String())
}

func pct(cdf []float64, i int) string {
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return fmt.Sprintf("%5.1f%%", cdf[i]*100)
}
