// Command benchmark is the repository's one benchmark: four named
// workloads over the whole stack, end-to-end metrics with regression
// bounds, and a layer budget measured from outside the program. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload kv-write-mix -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload all -seed 1 -runs 5 -out a.json
//	go run ./benchmark -compare a.json b.json
//
// One run is one OS process, so spin calibration, heap and peak_rss_mb
// are per run; `-workload all` re-executes this binary per workload. The
// last line of a single run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// hostFacts is recorded with every run: numbers from two hosts, or two
// spin calibrations, are not comparable.
type hostFacts struct {
	NProc       int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	FenceCallNS float64 `json:"nvm.fence_call_ns"`
	SpinScale   float64 `json:"spin_scale"` // real ns per calibrated ns; see calibrateSpin
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Quick     bool                   `json:"quick,omitempty"`
	Host      hostFacts              `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples,omitempty"`
	Filled    map[string]string      `json:"filled,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

// lastLine is the contract's result line.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: fixes key choice, op mix and crash budgets")
		seconds = flag.Int("seconds", 20, "measured seconds per run (sat and lat phases get half each)")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, quarter-length phases")
		out     = flag.String("out", "", "write the runs to this result file")
		runs    = flag.Int("runs", 1, "with -workload all: runs per workload")
		quick   = flag.Bool("quick", false, "smoke scale (~0.3 s per phase); numbers are not comparable")
		compare = flag.Bool("compare", false, "judge two result files: -compare base.json new.json")
		outDir  = flag.String("tracedir", "benchmark/out", "where the traced run writes trace-<workload>.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *wlName == "all":
		os.Exit(runAll(*seed, *seconds, *trace, *runs, *quick, *out, *outDir))
	}
	wl := findWorkload(*wlName)
	if wl == nil {
		fatalf("unknown workload %q (have: kv-write-mix, kv-read-zipf, kv-repl-write, fase-direct, all)", *wlName)
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds must be 1..60")
	}
	o := runOpts{wl: wl, seed: *seed, sc: fullScale(*seconds), trace: *trace != 0, outDir: *outDir}
	if *quick {
		o.sc = quickScale()
	} else if o.trace {
		o.sc = o.sc.traced()
	}
	rec, err := runOne(o)
	if err != nil {
		fatalf("%s: %v", wl.name, err)
	}
	rec.Seconds, rec.Quick = *seconds, *quick
	printRun(rec)
	if *out != "" {
		if err := writeResults(*out, []runRecord{*rec}); err != nil {
			fatalf("%v", err)
		}
	}
	// The result line carries exactly the metrics BENCHMARK.json declares
	// for this kind of run; the report above and the result file carry
	// everything that was measured.
	line := lastLine{rec.Correct, rec.Attempted, rec.Failed, map[string]metricValue{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[d.name] = rec.Metrics[d.name]
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process and shapes the record: the
// untraced run reports the end-to-end metrics, the traced run every
// per-layer metric.
func runOne(o runOpts) (*runRecord, error) {
	var res *result
	var err error
	if o.wl.server {
		res, err = runServer(o)
	} else {
		res, err = runDirect(o)
	}
	if err != nil {
		return nil, err
	}
	rec := &runRecord{
		Workload: o.wl.name, Seed: o.seed,
		Host: hostFacts{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), FenceCallNS: fenceCallNS(2000), SpinScale: spinScale,
		},
		Metrics: map[string]metricValue{},
		Samples: res.samples,
	}
	defs := endToEnd
	if o.trace {
		rec.Trace = 1
		defs = perLayer
		if err := fillLayers(o, res); err != nil {
			return nil, err
		}
		rec.Filled = res.filled
	}
	// The mini-runs and probes of a traced run count as attempts too.
	rec.Attempted, rec.Failed = res.attempted, res.failed
	rec.FailShare = ratio(float64(res.failed), float64(res.attempted))
	rec.Correct = res.failed == 0
	rec.Notes, rec.Errors = res.notes, res.errs
	for _, d := range defs {
		if _, ok := res.metrics[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if v, ok := res.metrics[d.name]; ok {
			rec.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	return rec, nil
}

// printRun is the human-readable report; the JSON line follows it.
func printRun(rec *runRecord) {
	fmt.Printf("workload %s  seed %d  trace %d  nproc %d  GOMAXPROCS %d  %s  fence call %.0f ns  spin scale %.4f\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Host.NProc, rec.Host.GoMaxProcs, rec.Host.GoVersion, rec.Host.FenceCallNS, rec.Host.SpinScale)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		extra := ""
		if s, ok := rec.Samples[n]; ok {
			extra = fmt.Sprintf("  (%d samples)", s)
		}
		if f, ok := rec.Filled[n]; ok {
			extra += "  [from " + f + "]"
		}
		fmt.Printf("  %-28s %16.4f %s%s\n", n, v.Value, v.Unit, extra)
	}
	fmt.Printf("  %-28s %16.6f ratio  (%d failed of %d attempted)\n", "fail_share", rec.FailShare, rec.Failed, rec.Attempted)
	for _, n := range rec.Notes {
		fmt.Printf("  %s\n", n)
	}
	for _, e := range rec.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

func writeResults(path string, runs []runRecord) error {
	b, err := json.MarshalIndent(resultFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runAll runs every workload `runs` times, each in its own process, and
// gathers their records. With trace, one traced run per workload follows.
func runAll(seed int64, seconds, trace, runs int, quick bool, out, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	// The children hand their records back through files under the trace
	// directory, which is inside the checkout and ignored by git.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	tmp, err := os.MkdirTemp(outDir, "runs-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)
	var all []runRecord
	status := 0
	child := func(wl string, tr, i int) {
		part := filepath.Join(tmp, fmt.Sprintf("%s-%d-%d.json", wl, tr, i))
		args := []string{"-workload", wl, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(tr), "-out", part, "-tracedir", outDir}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d, run %d): %v\n", wl, tr, i, err)
			status = 1
		}
		fmt.Printf("-- %s trace %d run %d took %.1f s\n", wl, tr, i, time.Since(start).Seconds())
		if f, err := readResults(part); err == nil {
			all = append(all, f.Runs...)
		}
	}
	for i := 0; i < runs; i++ {
		for _, wl := range workloads {
			child(wl.name, 0, i)
		}
	}
	if trace != 0 {
		for _, wl := range workloads {
			child(wl.name, 1, 0)
		}
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			fatalf("%v", err)
		}
	}
	return status
}
