package bench

import "testing"

// TestServerBenchQuick runs the end-to-end server sweep at smoke scale
// and asserts its qualitative shape: every cell serves traffic without
// client-visible errors, and at 16 connections the drain-sharing series
// never pays more device fences per request than direct persists.
// Throughput is not asserted: a 60 ms window on an oversubscribed CI
// core measures the scheduler as much as the protocol.
func TestServerBenchQuick(t *testing.T) {
	o := quick(t)
	results, err := RunServer(o)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int]ServerResult{}
	for _, r := range results {
		if byKey[r.Series] == nil {
			byKey[r.Series] = map[int]ServerResult{}
		}
		byKey[r.Series][r.Conns] = r
		if r.Ops == 0 {
			t.Fatalf("%s/c%d: zero ops", r.Series, r.Conns)
		}
		if r.Errs != 0 {
			t.Fatalf("%s/c%d: %d client-visible errors", r.Series, r.Conns, r.Errs)
		}
		if r.P50NS == 0 || r.P99NS < r.P50NS {
			t.Fatalf("%s/c%d: implausible latency p50=%d p99=%d", r.Series, r.Conns, r.P50NS, r.P99NS)
		}
	}
	d16, g16 := byKey["direct"][16], byKey["shared"][16]
	if g16.FencesPerOp > d16.FencesPerOp*1.05 {
		t.Fatalf("shared fences/op %.2f exceed direct %.2f at 16 conns",
			g16.FencesPerOp, d16.FencesPerOp)
	}
	t.Logf("c16: direct %.3f Mops/s %.2f fences/op; shared %.3f Mops/s %.2f fences/op",
		d16.MopsPS, d16.FencesPerOp, g16.MopsPS, g16.FencesPerOp)
}

// TestServerReadPathQuick runs the read-path sweep at smoke scale and
// asserts its qualitative shape: every cell serves error-free, the fast
// series actually uses the lock-free lane, and at 16 connections the
// fast lane never pays more fences per request than the slot path. The
// ≥2x throughput bar is gated on the captured BENCH_server_readpath.json
// run, not this canary.
func TestServerReadPathQuick(t *testing.T) {
	o := quick(t)
	results, err := RunServerReadPath(o)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int]ServerReadResult{}
	for _, r := range results {
		if byKey[r.Series] == nil {
			byKey[r.Series] = map[int]ServerReadResult{}
		}
		byKey[r.Series][r.Conns] = r
		if r.Ops == 0 {
			t.Fatalf("%s/c%d: zero ops", r.Series, r.Conns)
		}
		if r.Errs != 0 {
			t.Fatalf("%s/c%d: %d client-visible errors", r.Series, r.Conns, r.Errs)
		}
		if r.Series == "slot" && r.FastGets != 0 {
			t.Fatalf("slot/c%d: %d fast gets with the lane disabled", r.Conns, r.FastGets)
		}
		if r.Series != "slot" && r.FastGets == 0 {
			t.Fatalf("%s/c%d: fast lane never taken", r.Series, r.Conns)
		}
	}
	s16, f16 := byKey["slot"][16], byKey["fast"][16]
	if f16.FencesPerOp > s16.FencesPerOp*1.05 {
		t.Fatalf("fast fences/op %.2f exceed slot %.2f at 16 conns",
			f16.FencesPerOp, s16.FencesPerOp)
	}
	t.Logf("c16: slot %.3f Mops/s %.2f fences/op; fast %.3f Mops/s %.2f fences/op (%d fast gets, %d fallbacks)",
		s16.MopsPS, s16.FencesPerOp, f16.MopsPS, f16.FencesPerOp, f16.FastGets, f16.Fallbacks)
}
