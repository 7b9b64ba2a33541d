package metrics_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
)

// Golden renderings of the three exposure surfaces. testdata/ holds the
// Prometheus text, memcache `stats` and RESP `INFO` of one fixed
// Snapshot (every field a distinct nonzero value, two shards, every
// event kind, the exported histograms populated) and of the zero
// Snapshot. Regenerate with `go test ./internal/metrics -run
// TestRenderGolden -update` only when a change to the output is meant.

var update = flag.Bool("update", false, "rewrite the golden renderings in testdata/")

// goldenSnapshot returns a Snapshot in which every exported value is
// distinct, so a renderer reading the wrong field shows in the diff.
func goldenSnapshot() *metrics.Snapshot {
	next := uint64(100)
	n := func() uint64 { next += 7; return next }
	s := &metrics.Snapshot{MonoNS: 9_000_000_000, UptimeNS: 3_725_500_000_000}
	s.Dev = nvm.Stats{Loads: n(), Stores: n(), NTStores: n(), Flushes: n(), Fences: n(), Evictions: n(), Crashes: n()}
	for k := range s.Obs.Counts {
		s.Obs.Counts[k] = n()
	}
	s.Obs.Dropped = n()
	for h := range s.Obs.Hists {
		hc := &s.Obs.Hists[h]
		for i := 0; i < 4; i++ {
			hc.Buckets[3+h+3*i] = n()
		}
		hc.Buckets[64] = n()
		hc.Sum = n() * 1000
	}
	for i := 0; i < 2; i++ {
		n := func() uint64 { return n() << (10 * (i + 1)) } // shard sums stay distinct
		s.Srv.Shards = append(s.Srv.Shards, metrics.ShardStats{
			QueueDepth: int64(n()), InFlight: int64(n()), Reqs: n(), Gets: n(), Sets: n(), Dels: n(),
			Incrs: n(), Hits: n(), Misses: n(), FastGets: n(), FastRetries: n(), FastParks: n(),
			FastFallbacks: n(), Touches: n(), Evictions: n(),
		})
	}
	s.Srv.ConnsOpen = int64(n())
	s.Srv.ConnsTotal, s.Srv.Reqs, s.Srv.Batches, s.Srv.BytesIn, s.Srv.BytesOut = n(), n(), n(), n(), n()
	s.Srv.ProtoErrs, s.Srv.ConnsRejected, s.Srv.IdleClosed, s.Srv.Crashes = n(), n(), n(), n()
	s.Repl = metrics.ReplStats{
		Role: metrics.ReplRolePrimary, Attached: 1, Records: n(), Bytes: n(), AckedRecs: n(),
		Degraded: n(), LagRecs: n(), LagBytes: n(), LagNS: int64(n()), Reconnects: n(), Failovers: n(),
	}
	return s
}

func goldenDelta() *metrics.Delta {
	return &metrics.Delta{
		WindowNS: 2_000_000_000, Reqs: 4242, OpsPerSec: 2121, Errs: 3,
		FencesPerOp: 4.25, FlushesPerOp: 8.5, NTPerOp: 2,
		ReqP50NS: 1023, ReqP99NS: 8191, ReqP999NS: 65535,
	}
}

func TestRenderGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *metrics.Snapshot
		d    *metrics.Delta
	}{
		{"full", goldenSnapshot(), goldenDelta()},
		{"zero", &metrics.Snapshot{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var prom bytes.Buffer
			metrics.WritePrometheus(&prom, tc.s, tc.d)
			for _, f := range []struct {
				ext  string
				got  []byte
				same func(t *testing.T, want, got string)
			}{
				{"prom", prom.Bytes(), samePromFamilies},
				{"stats", metrics.AppendMemcacheStats(nil, tc.s), sameBytes},
				{"info", metrics.AppendRESPInfo(nil, tc.s), sameInfoSections},
			} {
				path := filepath.Join("testdata", tc.name+"."+f.ext)
				if *update {
					if err := os.WriteFile(path, f.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				f.same(t, string(want), string(f.got))
			}
		})
	}
}

func sameBytes(t *testing.T, want, got string) {
	t.Helper()
	if want != got {
		t.Errorf("memcache stats differ\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// samePromFamilies checks that both texts hold the same metric
// families, each with the same HELP, TYPE and sample lines in the same
// order. The order of the families themselves is free.
func samePromFamilies(t *testing.T, want, got string) {
	t.Helper()
	w, g := promFamilies(t, want), promFamilies(t, got)
	for name, lines := range w {
		if g[name] != lines {
			t.Errorf("family %s:\nwant:\n%s\ngot:\n%s", name, lines, g[name])
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			t.Errorf("unexpected family %s:\n%s", name, g[name])
		}
	}
}

func promFamilies(t *testing.T, text string) map[string]string {
	t.Helper()
	fams := map[string]string{}
	var name string
	for _, ln := range strings.SplitAfter(text, "\n") {
		if ln == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(ln, "# HELP "); ok {
			name, _, _ = strings.Cut(rest, " ")
			if _, dup := fams[name]; dup {
				t.Fatalf("family %s rendered twice", name)
			}
		}
		if name == "" {
			t.Fatalf("sample before any HELP line: %q", ln)
		}
		fams[name] += ln
	}
	return fams
}

// sameInfoSections checks the RESP framing of both replies, then that
// their payloads have the same sections in the same order, each with
// the same set of key:value lines.
func sameInfoSections(t *testing.T, want, got string) {
	t.Helper()
	ws, gs := infoSections(t, want), infoSections(t, got)
	if len(ws) != len(gs) {
		t.Fatalf("INFO has %d sections, want %d:\n%s", len(gs), len(ws), got)
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Errorf("INFO section %d:\nwant: %s\ngot:  %s", i, ws[i], gs[i])
		}
	}
}

// infoSections returns one string per section: its header, then its
// lines sorted.
func infoSections(t *testing.T, reply string) []string {
	t.Helper()
	hdr, payload, ok := strings.Cut(reply, "\r\n")
	n, err := strconv.Atoi(strings.TrimPrefix(hdr, "$"))
	if !ok || !strings.HasPrefix(hdr, "$") || err != nil || len(payload) != n+2 || !strings.HasSuffix(payload, "\r\n") {
		t.Fatalf("bad RESP bulk framing: %q", reply)
	}
	var secs [][]string
	for _, ln := range strings.Split(strings.TrimSuffix(payload[:n], "\r\n"), "\r\n") {
		if strings.HasPrefix(ln, "# ") {
			secs = append(secs, []string{ln})
			continue
		}
		if len(secs) == 0 {
			t.Fatalf("INFO line %q before any section", ln)
		}
		secs[len(secs)-1] = append(secs[len(secs)-1], ln)
	}
	out := make([]string, len(secs))
	for i, sec := range secs {
		sort.Strings(sec[1:])
		out[i] = strings.Join(sec, " | ")
	}
	return out
}
