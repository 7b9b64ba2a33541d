package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/stats"
	"github.com/ido-nvm/ido/internal/vm"
)

// ObsRuntimes are the systems whose persist-event profiles the obs
// experiment reports (every native runtime plus the two VM modes).
var ObsRuntimes = []string{"origin", "ido", "justdo", "atlas", "mnemosyne", "nvthreads", "nvml"}

// obsKinds are the event kinds worth a column in the summary table.
var obsKinds = []obs.Kind{
	obs.KFlush, obs.KFence, obs.KNTStore, obs.KLogAppend,
	obs.KBoundary, obs.KRegion, obs.KFASE, obs.KLockAcq,
}

// ObsResult is one runtime's traced-run profile: exact per-kind event
// counts, ring drops, and the metric-histogram summaries.
type ObsResult struct {
	Runtime string
	Counts  map[string]uint64
	Dropped uint64
	Hists   map[string]obs.Summary
}

// RunObs runs a fixed stack workload under every runtime with tracing
// enabled and reports each runtime's persist-event profile. It also
// enforces the tracer's core invariant — the traced flush/fence/nt-store/
// evict counts must exactly equal the device's counters — and fails the
// experiment on any divergence.
func RunObs(o Options) ([]ObsResult, error) {
	iters := 4000
	if o.Quick {
		iters = 400
	}
	var out []ObsResult
	var lastTr *obs.Tracer
	var lastDev *nvm.Device
	for _, sp := range specs(ObsRuntimes...) {
		tr := obs.New(obs.DefaultConfig())
		w, err := newWorld(o, sp.mk, 0, tr)
		if err != nil {
			return nil, fmt.Errorf("obs %s: %w", sp.name, err)
		}
		env := &ds.Env{Reg: w.reg, LM: w.lm}
		s, _, err := ds.NewStack(env)
		if err != nil {
			return nil, fmt.Errorf("obs %s: %w", sp.name, err)
		}
		th, err := w.rt.NewThread()
		if err != nil {
			return nil, fmt.Errorf("obs %s: %w", sp.name, err)
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < iters; i++ {
			if rng.Intn(2) == 0 {
				th.Exec(func() { s.Push(th, rng.Uint64()|1) })
			} else {
				th.Exec(func() { s.Pop(th) })
			}
		}
		if err := checkTraceMatchesDevice(sp.name, tr, w.reg.Dev.Stats()); err != nil {
			return nil, err
		}
		out = append(out, summarize(sp.name, tr))
		lastTr, lastDev = tr, w.reg.Dev
	}
	vmOut, err := runObsVM(o, iters)
	if err != nil {
		return nil, err
	}
	out = append(out, vmOut...)
	printObs(o, out)
	printObsOverhead(o, measureObsOverhead(lastTr, lastDev))
	return out, nil
}

// ObsOverhead is the snapshot-plane cost row: wall time and heap
// allocations per cumulative Collector.Read and per interval Diff, both
// measured against a tracer left warm by a full traced workload.
type ObsOverhead struct {
	ReadNS, DiffNS         float64
	ReadAllocs, DiffAllocs uint64
}

// measureObsOverhead times the two snapshot-plane operations the admin
// scrape path performs. Allocations are a per-iteration malloc delta on
// one OS thread, so the reported counts are exact for the steady state:
// Read fills in place and Diff is pure arithmetic, so both must be 0
// (the strict gate lives in the metrics package benchmarks and CI).
func measureObsOverhead(tr *obs.Tracer, dev *nvm.Device) ObsOverhead {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	coll := metrics.NewCollector(tr, dev)
	var prev, cur metrics.Snapshot
	var d metrics.Delta
	coll.Read(&prev)
	coll.Read(&cur)
	metrics.Diff(&prev, &cur, &d)
	const iters = 2000
	var oh ObsOverhead
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		coll.Read(&cur)
	}
	oh.ReadNS = float64(time.Since(t0).Nanoseconds()) / iters
	runtime.ReadMemStats(&ms1)
	oh.ReadAllocs = (ms1.Mallocs - ms0.Mallocs) / iters
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		metrics.Diff(&prev, &cur, &d)
	}
	oh.DiffNS = float64(time.Since(t0).Nanoseconds()) / iters
	runtime.ReadMemStats(&ms1)
	oh.DiffAllocs = (ms1.Mallocs - ms0.Mallocs) / iters
	return oh
}

func printObsOverhead(o Options, oh ObsOverhead) {
	out := o.out()
	fprintf(out, "Obs: snapshot plane overhead (per scrape, warm tracer)\n")
	var tb stats.Table
	tb.AddRow("op", "ns", "allocs")
	tb.AddRow("collector-read", fmt.Sprintf("%.0f", oh.ReadNS), fmt.Sprintf("%d", oh.ReadAllocs))
	tb.AddRow("interval-diff", fmt.Sprintf("%.0f", oh.DiffNS), fmt.Sprintf("%d", oh.DiffAllocs))
	fprintf(out, "%s\n", tb.String())
}

// runObsVM profiles the VM engines on the irprog stack kernel.
func runObsVM(o Options, iters int) ([]ObsResult, error) {
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		return nil, err
	}
	var out []ObsResult
	for _, mode := range []vm.Mode{vm.ModeIDO, vm.ModeJUSTDO} {
		tr := obs.New(obs.DefaultConfig())
		cfg := nvmConfig(1<<24, 0)
		cfg.Tracer = tr // attach at birth so trace counts equal device stats
		reg := region.Create(1<<24, cfg)
		lm := locks.NewManager(reg)
		m := vm.New(reg, lm, prog, mode)
		m.SetCrashBudget(1 << 62)
		stk, err := irprog.NewStack(reg, lm)
		if err != nil {
			return nil, err
		}
		th, err := m.NewThread()
		if err != nil {
			return nil, err
		}
		name := "vm-" + mode.String()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				_, err = th.Call("stack_push", stk, uint64(i+1))
			} else {
				_, err = th.Call("stack_pop", stk)
			}
			if err != nil {
				return nil, fmt.Errorf("obs %s: %w", name, err)
			}
		}
		if err := checkTraceMatchesDevice(name, tr, reg.Dev.Stats()); err != nil {
			return nil, err
		}
		out = append(out, summarize(name, tr))
	}
	return out, nil
}

// checkTraceMatchesDevice enforces the 1:1 pairing of device stat counts
// and trace events (the property the conformance tests assert).
func checkTraceMatchesDevice(name string, tr *obs.Tracer, ds nvm.Stats) error {
	for _, c := range []struct {
		kind obs.Kind
		want uint64
	}{
		{obs.KFlush, ds.Flushes},
		{obs.KFence, ds.Fences},
		{obs.KNTStore, ds.NTStores},
		{obs.KEvict, ds.Evictions},
	} {
		if got := tr.Count(c.kind); got != c.want {
			return fmt.Errorf("obs %s: traced %s count %d != device count %d",
				name, c.kind, got, c.want)
		}
	}
	return nil
}

func summarize(name string, tr *obs.Tracer) ObsResult {
	r := ObsResult{
		Runtime: name,
		Counts:  map[string]uint64{},
		Dropped: tr.Dropped(),
		Hists:   map[string]obs.Summary{},
	}
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		r.Counts[k.String()] = tr.Count(k)
	}
	for h := obs.HistKind(0); int(h) < obs.NumHists; h++ {
		r.Hists[h.String()] = tr.Hist(h)
	}
	return r
}

func printObs(o Options, results []ObsResult) {
	out := o.out()
	fprintf(out, "Obs: persist-event counts per runtime (stack workload; traced == device counters)\n")
	var tb stats.Table
	hdr := []string{"runtime"}
	for _, k := range obsKinds {
		hdr = append(hdr, k.String())
	}
	hdr = append(hdr, "dropped")
	tb.AddRow(hdr...)
	for _, r := range results {
		row := []string{r.Runtime}
		for _, k := range obsKinds {
			row = append(row, fmt.Sprintf("%d", r.Counts[k.String()]))
		}
		row = append(row, fmt.Sprintf("%d", r.Dropped))
		tb.AddRow(row...)
	}
	fprintf(out, "%s\n", tb.String())

	fprintf(out, "Obs: metric histograms per runtime (mean/p50/p99)\n")
	var tb2 stats.Table
	tb2.AddRow("runtime", "flush-ns", "fence-ns", "log-bytes/fase", "outputs/region", "stores/region")
	cell := func(s obs.Summary) string {
		if s.Count == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f/%d/%d", s.Mean, s.P50, s.P99)
	}
	for _, r := range results {
		tb2.AddRow(r.Runtime,
			cell(r.Hists[obs.HFlushNS.String()]),
			cell(r.Hists[obs.HFenceNS.String()]),
			cell(r.Hists[obs.HLogBytesPerFASE.String()]),
			cell(r.Hists[obs.HOutputsPerRegion.String()]),
			cell(r.Hists[obs.HRegionStores.String()]))
	}
	fprintf(out, "%s\n", tb2.String())
}
