package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRuns builds one result file: per workload, the given ops_per_s
// values (every other end-to-end metric constant).
func fakeRuns(t *testing.T, name string, fence float64, ops map[string][]float64) string {
	t.Helper()
	var runs []runRecord
	for wl, vals := range ops {
		for _, v := range vals {
			r := runRecord{Workload: wl, Correct: true, Attempted: 1, Host: hostFacts{FenceCallNS: fence},
				Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metricValue{100, d.unit}
			}
			r.Metrics["ops_per_s"] = metricValue{v, "1/s"}
			runs = append(runs, r)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := writeResults(path, runs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	bound := endToEnd[0].bound // ops_per_s
	steady := []float64{1000, 1002, 998, 1001, 999}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	base := fakeRuns(t, "base.json", 400, map[string][]float64{
		"kv-write-mix": steady, "kv-read-zipf": steady, "kv-repl-write": steady, "fase-direct": steady})
	cur := fakeRuns(t, "new.json", 400, map[string][]float64{
		"kv-write-mix":  steady,                       // unchanged
		"kv-read-zipf":  scale(1 - 1.5*bound),         // regressed
		"kv-repl-write": scale(1 + 1.5*bound),         // improved
		"fase-direct":   {500, 1000, 1500, 700, 1300}, // too noisy to call
	})
	var out bytes.Buffer
	if code := compareFiles(&out, base, cur); code != 1 {
		t.Errorf("exit code %d, want 1 (one workload regressed)\n%s", code, out.String())
	}
	want := map[string]string{"kv-write-mix": "unchanged", "kv-read-zipf": "regressed",
		"kv-repl-write": "improved", "fase-direct": "unresolved"}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 8 || f[1] != "ops_per_s" {
			continue
		}
		if f[7] != want[f[0]] {
			t.Errorf("%s ops_per_s: verdict %q, want %q\n%s", f[0], f[7], want[f[0]], line)
		}
		delete(want, f[0])
	}
	if len(want) != 0 {
		t.Errorf("no ops_per_s row for %v\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "DRIFT") {
		t.Errorf("drift flagged between equal calibrations\n%s", out.String())
	}

	// Same numbers, but the new side's fences cost 8 % more: flagged.
	drifted := fakeRuns(t, "drift.json", 432, map[string][]float64{"kv-write-mix": steady})
	out.Reset()
	if code := compareFiles(&out, base, drifted); code != 0 {
		t.Errorf("exit code %d on unchanged numbers", code)
	}
	if !strings.Contains(out.String(), "CALIBRATION DRIFT") {
		t.Errorf("8 %% fence drift not flagged\n%s", out.String())
	}
}
