// Package bench regenerates every table and figure of the iDO paper's
// evaluation (§V): Memcached throughput (Fig. 5), Redis throughput
// (Fig. 6), the data-structure microbenchmarks (Fig. 7), region
// characteristics (Fig. 8), recovery-time ratios (Table I), NVM-latency
// sensitivity (Fig. 9), and the ablations called out in DESIGN.md. Each
// driver prints the same rows/series the paper reports; absolute numbers
// depend on the simulated NVM substrate, but the shapes — who wins, by
// roughly what factor, where the crossovers fall — are the reproduction
// target (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/justdo"
	"github.com/ido-nvm/ido/internal/baselines/mnemosyne"
	"github.com/ido-nvm/ido/internal/baselines/nvml"
	"github.com/ido-nvm/ido/internal/baselines/nvthreads"
	"github.com/ido-nvm/ido/internal/baselines/origin"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Options configures a benchmark run.
type Options struct {
	// Duration is the measurement interval per data point.
	Duration time.Duration
	// Threads is the worker-count sweep (Fig. 5/7 x axis).
	Threads []int
	// DeviceBytes sizes the simulated NVM per data point.
	DeviceBytes int
	// Out receives the printed rows; nil discards them.
	Out io.Writer
	// Quick shrinks every parameter for smoke tests.
	Quick bool
	// Tracer, when non-nil, is attached to every device the run creates,
	// so persist events from all data points land in one trace.
	Tracer *obs.Tracer
	// Seed drives every nvm.CrashRandom settle the run performs (Table
	// I's post-kill crash), so a failure can be replayed with the seed
	// its error message names. Zero means 1.
	Seed int64
	// Workers bounds how many independent figure points run concurrently
	// (each point owns its own world, so points share nothing). 0 or 1
	// runs points serially — the accurate-measurement default, since a
	// co-scheduled point steals cycles from the one being timed; raise it
	// to overlap construction and warm-up when sweeping a large grid.
	// Crash-injection experiments (Table I, recovery ablations) ignore it
	// and stay serial: they time recovery, which a co-scheduled point
	// would slow down.
	Workers int
}

// seed returns the run seed with the zero-value default applied.
func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// workers returns the point-level concurrency bound (at least 1).
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// DefaultOptions mirrors the paper's setup, scaled to a simulator: the
// paper sweeps 1-64 threads on a 64-core machine; we sweep to
// min(64, 4*GOMAXPROCS) and note oversubscription in EXPERIMENTS.md.
func DefaultOptions() Options {
	maxT := 4 * runtime.GOMAXPROCS(0)
	if maxT > 64 {
		maxT = 64
	}
	var sweep []int
	for n := 1; n <= maxT; n *= 2 {
		sweep = append(sweep, n)
	}
	return Options{
		Duration:    300 * time.Millisecond,
		Threads:     sweep,
		DeviceBytes: 1 << 28,
		Quick:       false,
	}
}

// QuickOptions returns a seconds-scale smoke configuration used by the
// test suite and `idobench -quick`.
func QuickOptions() Options {
	return Options{
		Duration:    60 * time.Millisecond,
		Threads:     []int{1, 2, 4},
		DeviceBytes: 1 << 24,
		Quick:       true,
	}
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// nvmConfig is the baseline persistence cost model, following §V's
// clflush+sfence ADR approximation: issuing a write-back is cheap (~50 ns
// to hand the line to the controller), the persist fence pays the
// round-trip wait that drains outstanding write-backs (~400 ns, within
// the measured fence-to-persistence range of Optane-era parts), and a
// non-temporal store costs ~150 ns. These deliberately sit well above the
// simulator's per-access bookkeeping (~60 ns) so that modeled persistence
// costs — fence and flush counts — dominate relative results, as they do
// on hardware; see EXPERIMENTS.md. extraNS is the Fig. 9 knob: an added
// delay charged at each write-back and NT store, exactly where the paper
// inserts its nop loops.
func nvmConfig(bytes, extraNS int) nvm.Config {
	return nvm.Config{
		Size:      bytes,
		FlushNS:   50,
		FenceNS:   400,
		NTStoreNS: 150,
		ExtraNS:   extraNS,
	}
}

// world is one benchmark universe: a region, lock manager, and runtime.
type world struct {
	reg *region.Region
	lm  *locks.Manager
	rt  persist.Runtime
}

// newWorld builds one universe over the figure cost model.
func newWorld(o Options, mk func() persist.Runtime, extraNS int) (*world, error) {
	cfg := nvmConfig(o.DeviceBytes, extraNS)
	cfg.Tracer = o.Tracer // attach at birth so trace counts equal device stats
	reg := region.Create(o.DeviceBytes, cfg)
	lm := locks.NewManager(reg)
	rt := mk()
	if err := rt.Attach(reg, lm); err != nil {
		return nil, err
	}
	return &world{reg: reg, lm: lm, rt: rt}, nil
}

// spec names one runtime configuration under benchmark.
type spec struct {
	name string
	mk   func() persist.Runtime
}

func mkSpec(name string) spec {
	switch name {
	case "origin":
		return spec{name, func() persist.Runtime { return origin.New() }}
	case "ido":
		return spec{name, func() persist.Runtime { return core.New(core.DefaultConfig()) }}
	case "ido-nocoalesce":
		return spec{name, func() persist.Runtime { return core.New(core.Config{Coalesce: false}) }}
	case "justdo":
		return spec{name, func() persist.Runtime { return justdo.New() }}
	case "atlas":
		return spec{name, func() persist.Runtime { return atlas.New(atlas.Config{}) }}
	case "atlas-retain":
		return spec{name, func() persist.Runtime { return atlas.New(atlas.Config{Retain: true}) }}
	case "mnemosyne":
		return spec{name, func() persist.Runtime { return mnemosyne.New() }}
	case "nvthreads":
		return spec{name, func() persist.Runtime { return nvthreads.New() }}
	case "nvml":
		return spec{name, func() persist.Runtime { return nvml.New() }}
	}
	panic("bench: unknown runtime " + name)
}

func specs(names ...string) []spec {
	out := make([]spec, len(names))
	for i, n := range names {
		out[i] = mkSpec(n)
	}
	return out
}

// measure runs nThreads workers for d against per-thread op closures and
// returns total completed operations. setup(i) builds worker i's op
// function (bound to its persist.Thread); every op is wrapped in Exec so
// speculative runtimes can retry.
func measure(w *world, nThreads int, d time.Duration,
	setup func(i int, t persist.Thread) func()) (uint64, error) {
	// Collect garbage from the previous point's device before timing:
	// a GC pause inside a short measurement window would otherwise swamp
	// the signal.
	runtime.GC()
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	threads := make([]persist.Thread, nThreads)
	ops := make([]func(), nThreads)
	for i := 0; i < nThreads; i++ {
		t, err := w.rt.NewThread()
		if err != nil {
			return 0, err
		}
		threads[i] = t
		ops[i] = setup(i, t)
	}
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := threads[i]
			op := ops[i]
			n := uint64(0)
			for !stop.Load() {
				t.Exec(op)
				n++
			}
			total.Add(n)
		}(i)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return total.Load(), nil
}

// runPoints executes jobs 0..n-1 through a bounded pool of o.workers()
// goroutines and returns the first error encountered (remaining queued
// jobs are skipped once a worker fails). Each job owns its own world, so
// jobs are independent; callers capture per-job results by index inside
// run and fold them into figures afterwards, in deterministic job order —
// stats.Figure.Add is not safe for concurrent use and series order is
// part of the printed output.
func runPoints(o Options, n int, run func(i int) error) error {
	workers := o.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func fprintf(out io.Writer, format string, args ...any) {
	fmt.Fprintf(out, format, args...)
}
