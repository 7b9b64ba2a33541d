package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/server"
)

// TestQuickRunsReportEveryMetric runs all four workloads at smoke scale,
// untraced and traced, and validates the result: every declared metric
// present, finite and with its unit; nothing failed; the standby never
// degraded.
func TestQuickRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for i := range workloads {
		wl := &workloads[i]
		for _, trace := range []bool{false, true} {
			name := wl.name + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = wl.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				rec, err := runOne(runOpts{wl: wl, seed: 1, sc: quickScale(), trace: trace, outDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.FailShare != 0 {
					t.Fatalf("%d of %d failed: %v", rec.Failed, rec.Attempted, rec.Errors)
				}
				if rec.Attempted == 0 {
					t.Fatal("nothing was attempted")
				}
				for _, d := range defs {
					v, ok := rec.Metrics[d.name]
					if !ok {
						t.Errorf("%s is missing", d.name)
						continue
					}
					// Only the overhead, a difference of two noisy rates, may
					// come out below zero.
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (v.Value < 0 && d.name != "trace.overhead_share") {
						t.Errorf("%s = %v", d.name, v.Value)
					}
					if v.Unit != d.unit {
						t.Errorf("%s has unit %q, want %q", d.name, v.Unit, d.unit)
					}
					if !trace && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
				if !trace {
					return
				}
				if v := rec.Metrics["replica.degraded"].Value; v != 0 {
					t.Errorf("replica.degraded = %v", v)
				}
				// The trace file is Chrome trace_event JSON with spans in it.
				b, err := os.ReadFile(filepath.Join(dir, "trace-"+wl.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct {
						Name string  `json:"name"`
						Dur  float64 `json:"dur"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &doc); err != nil {
					t.Fatalf("trace file is not JSON: %v", err)
				}
				names := map[string]bool{}
				for _, e := range doc.TraceEvents {
					names[e.Name] = true
				}
				want := []string{"store.op", "thread.lock", "thread.boundary", "thread.unlock"}
				if wl.server {
					want = append(want, "client.request", "conn.c2s", "server.resident", "conn.s2c")
				}
				if wl.repl {
					want = append(want, "replica.ship")
				}
				for _, n := range want {
					if !names[n] {
						t.Errorf("trace file has no %s span", n)
					}
				}
			})
		}
	}
}

// TestFaseDirectCountsRepeatExactly: with one thread the device and
// runtime counts are a function of the seed alone, so two commits can be
// compared on them exactly; a second seed must drive a different stream.
func TestFaseDirectCountsRepeatExactly(t *testing.T) {
	exact := []string{"nvm.fences_per_op", "nvm.flushes_per_op", "nvm.ntstores_per_op",
		"core.logged_bytes_per_fase", "core.boundaries_per_fase", "nvm_bytes_per_item"}
	run := func(seed int64) *result {
		o := quickDirect(false)
		o.seed = seed
		res, err := runDirect(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("seed %d: %v", seed, res.errs)
		}
		return res
	}
	a, b := run(1), run(1)
	for _, k := range exact {
		if a.metrics[k] != b.metrics[k] || a.metrics[k] == 0 {
			t.Errorf("%s: %v then %v on the same seed", k, a.metrics[k], b.metrics[k])
		}
	}
	first := func(seed int64) (keys [64]uint32) {
		o := quickDirect(false)
		o.seed = seed
		d, err := buildDirect(o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			keys[i], _ = d.draw(50)
		}
		return keys
	}
	if first(1) != first(1) {
		t.Error("one seed drew two op streams")
	}
	if first(1) == first(2) {
		t.Error("seeds 1 and 2 drew the same op stream")
	}
}

// corruptStore returns every value off by one.
type corruptStore struct{ server.Store }

func (s corruptStore) Get(t persist.Thread, shard int, k0, k1 uint64) (uint64, bool) {
	v, ok := s.Store.Get(t, shard, k0, k1)
	return v + 1, ok
}

func (s corruptStore) GetFast(shard int, k0, k1 uint64) (uint64, bool, bool) {
	v, hit, ok := s.Store.GetFast(shard, k0, k1)
	return v + 1, hit, ok
}

// TestCorruptedValuesFailTheRun puts a value-corrupting decorator under
// the server and under fase-direct: the output checks must notice and the
// record must say incorrect, which is what makes the command exit
// non-zero.
func TestCorruptedValuesFailTheRun(t *testing.T) {
	decorate = func(s server.Store) server.Store { return corruptStore{s} }
	defer func() { decorate = nil }()
	for _, name := range []string{"kv-write-mix", "fase-direct"} {
		rec, err := runOne(runOpts{wl: findWorkload(name), seed: 1, sc: quickScale()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Correct || rec.Failed == 0 || len(rec.Errors) == 0 {
			t.Errorf("%s: corrupted values passed the output checks (%d failed)", name, rec.Failed)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, in step with the tables this program reports by.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d reported", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: declared %+v, reported %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, spec %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
