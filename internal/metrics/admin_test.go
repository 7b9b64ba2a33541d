package metrics_test

import (
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/server"
)

// End-to-end tests of the admin plane over a real serving stack: the
// acceptance reconciliation (/metrics values == device counters == exact
// tracer counts), the /readyz lifecycle across an injected crash and
// recovery, and the debug endpoints' output formats.

// adminWorld is the idoserve wiring in miniature: traced device, runtime,
// memcache store, server as metrics source, admin handler on top.
type adminWorld struct {
	tr    *obs.Tracer
	reg   *region.Region
	srv   *server.Server
	coll  *metrics.Collector
	h     *metrics.Health
	admin *httptest.Server
}

func newAdminWorld(t testing.TB, devcfg nvm.Config) *adminWorld {
	t.Helper()
	w := &adminWorld{tr: obs.New(obs.DefaultConfig())}
	devcfg.Tracer = w.tr
	if devcfg.Size == 0 {
		devcfg.Size = 1 << 22
	}
	w.reg = region.Create(devcfg.Size, devcfg)
	lm := locks.NewManager(w.reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(w.reg, lm); err != nil {
		t.Fatalf("attach: %v", err)
	}
	store, err := server.NewMcStore(&memcache.Env{Reg: w.reg, LM: lm}, 4, 64)
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	w.coll = metrics.NewCollector(w.tr, w.reg.Dev)
	w.h = metrics.NewHealth("attaching store")
	w.srv, err = server.New(rt, store, server.Config{Proto: server.ProtoMemcache, Metrics: w.coll}, w.tr)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	w.h.Set(true, "serving")
	w.h.NotReadyOn(w.srv.Crashed(), "device crash: restart for recovery")
	w.admin = httptest.NewServer(metrics.NewAdmin(w.coll, w.h).Handler())
	t.Cleanup(func() { w.admin.Close(); w.srv.Close() })
	return w
}

// load drives n deterministic ops through the server.
func (w *adminWorld) load(t testing.TB, n int) *loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(loadgen.Config{
		Proto: loadgen.ProtoMemcache, Conns: 4, Pipeline: 4, Keys: 256,
		SetPct: 40, DelPct: 20, Ops: uint64(n), Seed: 5,
	}, func() (net.Conn, error) {
		client, srvEnd := loadgen.MemPipe(64 << 10)
		if serr := w.srv.ServeConn(srvEnd); serr != nil {
			return nil, serr
		}
		return client, nil
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	return res
}

func get(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// promValue extracts the value of an exactly-named series from a
// Prometheus text body.
func promValue(t testing.TB, body, series string) uint64 {
	t.Helper()
	for _, ln := range strings.Split(body, "\n") {
		val, ok := strings.CutPrefix(ln, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("series %s has non-integer value %q", series, val)
		}
		return v
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, body)
	return 0
}

func TestMetricsReconcile(t *testing.T) {
	w := newAdminWorld(t, nvm.Config{})
	res := w.load(t, 400)
	if res.Ops == 0 {
		t.Fatalf("no ops served")
	}

	status, body := get(t, w.admin.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}

	// The acceptance reconciliation: the scraped fence counter, the
	// device's own stats, and the tracer's exact event count must agree.
	fences := promValue(t, body, "ido_fences_total")
	if dev := w.reg.Dev.Stats().Fences; fences != dev {
		t.Errorf("scraped ido_fences_total %d != device fences %d", fences, dev)
	}
	if traced := w.tr.Count(obs.KFence); fences != traced {
		t.Errorf("scraped ido_fences_total %d != traced fences %d", fences, traced)
	}
	if fences == 0 {
		t.Errorf("ido_fences_total = 0 after %d ops", res.Ops)
	}

	// Request accounting matches the load the client acked, and the
	// per-shard rows sum to the server total.
	reqs := promValue(t, body, "ido_server_requests_total")
	if reqs < uint64(res.Ops) {
		t.Errorf("ido_server_requests_total %d < acked ops %d", reqs, res.Ops)
	}
	var shardReqs uint64
	for i := 0; i < 4; i++ {
		shardReqs += promValue(t, body, `ido_shard_requests_total{shard="`+strconv.Itoa(i)+`"}`)
		promValue(t, body, `ido_shard_queue_depth{shard="`+strconv.Itoa(i)+`"}`)
	}
	if shardReqs != uint64(res.Ops) {
		t.Errorf("shard requests sum %d != acked ops %d", shardReqs, res.Ops)
	}
	hits := promValue(t, body, "ido_server_get_hits_total")
	misses := promValue(t, body, "ido_server_get_misses_total")
	if hits != res.Hits || misses != res.Misses {
		t.Errorf("hits/misses %d/%d != client-observed %d/%d", hits, misses, res.Hits, res.Misses)
	}

	// Latency histogram framing: one +Inf bucket, count == sum of events.
	if n := strings.Count(body, `ido_req_latency_ns_bucket{le="+Inf"}`); n != 1 {
		t.Errorf("want exactly one +Inf bucket for ido_req_latency_ns, got %d", n)
	}
	if promValue(t, body, "ido_req_latency_ns_count") == 0 {
		t.Errorf("ido_req_latency_ns_count = 0 after load")
	}

	// First scrape has no interval gauges; a second scrape does.
	if strings.Contains(body, "ido_requests_per_second") {
		t.Errorf("first scrape already has interval gauges")
	}
	w.load(t, 100)
	_, body2 := get(t, w.admin.URL+"/metrics")
	for _, g := range []string{"ido_requests_per_second", "ido_fences_per_op",
		`ido_req_latency_interval_ns{quantile="0.99"}`} {
		if !strings.Contains(body2, g) {
			t.Errorf("second scrape missing interval gauge %s", g)
		}
	}
}

func TestHealthTransitionsAcrossCrash(t *testing.T) {
	// Before the store is ready, /readyz refuses with the boot reason.
	h := metrics.NewHealth("attaching store")
	coll := metrics.NewCollector(nil, nil)
	pre := httptest.NewServer(metrics.NewAdmin(coll, h).Handler())
	if st, body := get(t, pre.URL+"/readyz"); st != http.StatusServiceUnavailable ||
		!strings.Contains(body, "attaching store") {
		t.Fatalf("pre-ready /readyz = %d %q", st, body)
	}
	if st, body := get(t, pre.URL+"/healthz"); st != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", st, body)
	}
	pre.Close()

	w := newAdminWorld(t, nvm.Config{})
	w.reg.Dev.ArmLocalCrash(1 << 60)
	defer w.reg.Dev.ArmLocalCrash(-1)
	if st, body := get(t, w.admin.URL+"/readyz"); st != http.StatusOK || !strings.Contains(body, "serving") {
		t.Fatalf("serving /readyz = %d %q", st, body)
	}

	// Crash mid-serve: readiness must flip once the server observes it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		loadgen.Run(loadgen.Config{
			Proto: loadgen.ProtoMemcache, Conns: 4, Pipeline: 4, Keys: 256,
			SetPct: 40, DelPct: 20, Duration: 30 * time.Second, Seed: 9,
		}, func() (net.Conn, error) {
			client, srvEnd := loadgen.MemPipe(64 << 10)
			if serr := w.srv.ServeConn(srvEnd); serr != nil {
				return nil, serr
			}
			return client, nil
		})
	}()
	time.Sleep(50 * time.Millisecond)
	w.reg.Dev.TriggerLocalCrash()
	select {
	case <-w.srv.Crashed():
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not observe the crash")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, body := get(t, w.admin.URL+"/readyz")
		if st == http.StatusServiceUnavailable && strings.Contains(body, "device crash") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d %q after crash", st, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.srv.Close()
	<-done

	// The crash is visible in the scrape too.
	_, body := get(t, w.admin.URL+"/metrics")
	if promValue(t, body, "ido_server_crashes_total") != 1 {
		t.Errorf("ido_server_crashes_total != 1 after crash")
	}

	// Restarted process: recover the image and flip ready again, the
	// idoserve boot sequence.
	w.reg.Dev.ArmLocalCrash(-1)
	reg2, err := w.reg.Crash(nvm.CrashRandom, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	h2 := metrics.NewHealth("recovering")
	admin2 := httptest.NewServer(metrics.NewAdmin(metrics.NewCollector(nil, reg2.Dev), h2).Handler())
	defer admin2.Close()
	if st, _ := get(t, admin2.URL+"/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("recovering /readyz = %d", st)
	}
	lm2 := locks.NewManager(reg2)
	rt2 := core.New(core.DefaultConfig())
	if err := rt2.Attach(reg2, lm2); err != nil {
		t.Fatalf("attach2: %v", err)
	}
	store2, err := server.AttachMcStore(&memcache.Env{Reg: reg2, LM: lm2})
	if err != nil {
		t.Fatalf("attach store: %v", err)
	}
	rr := persist.NewResumeRegistry()
	store2.Register(rr)
	if _, err := rt2.Recover(rr); err != nil {
		t.Fatalf("recover: %v", err)
	}
	srv2, err := server.New(rt2, store2, server.Config{Proto: server.ProtoMemcache}, nil)
	if err != nil {
		t.Fatalf("re-serve: %v", err)
	}
	defer srv2.Close()
	h2.Set(true, "serving")
	if st, body := get(t, admin2.URL+"/readyz"); st != http.StatusOK || !strings.Contains(body, "serving") {
		t.Fatalf("post-recovery /readyz = %d %q", st, body)
	}
}

func TestDebugEndpoints(t *testing.T) {
	w := newAdminWorld(t, nvm.Config{})
	w.load(t, 200)

	// /debug/snapshot is the full Snapshot as JSON.
	st, body := get(t, w.admin.URL+"/debug/snapshot")
	if st != http.StatusOK {
		t.Fatalf("/debug/snapshot status %d", st)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/snapshot not a Snapshot: %v", err)
	}
	if snap.Dev.Fences == 0 || snap.Srv.Reqs == 0 || len(snap.Srv.Shards) != 4 {
		t.Fatalf("snapshot missing data: fences=%d reqs=%d shards=%d",
			snap.Dev.Fences, snap.Srv.Reqs, len(snap.Srv.Shards))
	}

	// /debug/trace captures a live window as valid Chrome trace JSON.
	stop := make(chan struct{})
	go func() {
		r := w.tr.ThreadRing("emitter")
		for {
			select {
			case <-stop:
				return
			default:
				r.Emit(obs.KFASE, 1, 0)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	st, body = get(t, w.admin.URL+"/debug/trace?ms=80")
	close(stop)
	if st != http.StatusOK {
		t.Fatalf("/debug/trace status %d", st)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/debug/trace not valid Chrome JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("/debug/trace captured no events while an emitter ran")
	}

	// Bad window and tracer-less process are refused.
	if st, _ := get(t, w.admin.URL+"/debug/trace?ms=nope"); st != http.StatusBadRequest {
		t.Errorf("bad ms: status %d", st)
	}
	bare := httptest.NewServer(metrics.NewAdmin(metrics.NewCollector(nil, nil), w.h).Handler())
	defer bare.Close()
	if st, _ := get(t, bare.URL+"/debug/trace"); st != http.StatusServiceUnavailable {
		t.Errorf("tracer-less /debug/trace: status %d", st)
	}
}
