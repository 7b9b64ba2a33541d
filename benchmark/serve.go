package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvalloc"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/replica"
	"github.com/ido-nvm/ido/internal/server"
)

// runOpts is one run of one workload.
type runOpts struct {
	wl     *workload
	seed   int64
	sc     scale
	trace  bool
	outDir string // where the traced run writes its Chrome trace ("" = nowhere)
}

// result is what one run measured. metrics holds every value by its
// declared name; filled names the metrics a mini-run or probe supplied
// because the workload itself does not cross that layer.
type result struct {
	metrics   map[string]float64
	filled    map[string]string
	samples   map[string]int // sample counts behind the percentiles
	notes     []string       // report lines that are not metrics
	attempted uint64
	failed    uint64
	errs      []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, filled: map[string]string{}, samples: map[string]int{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// fillFrom copies every metric src has and r lacks, remembering where it
// came from.
func (r *result) fillFrom(src *result, from string) {
	for k, v := range src.metrics {
		if _, ok := r.metrics[k]; !ok {
			r.metrics[k] = v
			r.filled[k] = from
		}
	}
}

// world is a built server workload: the primary, its server and clients,
// and for a replicated workload the standby joined to it.
type world struct {
	wl      *workload
	primary *node
	standby *node
	pr      *pair
	srv     *server.Server
	cs      []*client
	tr      *tracer // nil unless the run is traced
}

func buildWorld(o runOpts) (*world, error) {
	w := &world{wl: o.wl}
	if o.trace {
		w.tr = newTracer()
	}
	tr := w.tr
	var err error
	if w.primary, err = newNode(o.sc.region, shards, buckets, tr, false); err != nil {
		return nil, err
	}
	if err = w.primary.prefill(o.wl); err != nil {
		return nil, err
	}
	if o.wl.repl {
		if w.standby, err = newNode(o.sc.region, shards, buckets, tr, true); err != nil {
			return nil, err
		}
		if err = w.standby.prefill(o.wl); err != nil {
			return nil, err
		}
		if w.pr, err = joinStandby(w.standby, tr); err != nil {
			return nil, err
		}
	}
	for i := 0; i < conns; i++ {
		w.cs = append(w.cs, newClient(i, o.wl, o.seed, tr))
	}
	var sh *replica.Shipper
	if w.pr != nil {
		sh = w.pr.sh
	}
	w.srv, err = w.primary.serve(o.wl, sh, w.cs)
	return w, err
}

// close stops everything the world started and waits for it.
func (w *world) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.pr != nil {
		w.pr.sb.Stop()
		<-w.pr.done
	}
}

// setUp builds the world sc.setups times and keeps the last; setup_s is
// the median build time, so one slow page-fault storm or calibration does
// not decide it.
func setUp(o runOpts) (*world, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		w, err := buildWorld(o)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == o.sc.setups-1 {
			return w, medianF(times), nil
		}
		w.close()
		debug.FreeOSMemory() // the discarded world's devices are hundreds of MiB
	}
}

// counters is a snapshot of every public counter the layer metrics are
// differences of.
type counters struct {
	dev   nvm.Stats
	gc    nvm.GCStats
	rt    persist.RuntimeStats
	alloc nvalloc.Stats
	srv   metrics.ServerStats
	shard metrics.ShardStats // summed over shards
	repl  metrics.ReplStats
	mem   runtime.MemStats
}

func addDev(a *nvm.Stats, b nvm.Stats) {
	a.Loads += b.Loads
	a.Stores += b.Stores
	a.NTStores += b.NTStores
	a.Flushes += b.Flushes
	a.Fences += b.Fences
}

func addGC(a *nvm.GCStats, b nvm.GCStats) {
	a.Epochs += b.Epochs
	a.Solo += b.Solo
	a.Combined += b.Combined
	a.ServedFASEs += b.ServedFASEs
	a.DwellRounds += b.DwellRounds
}

// snapshot reads the counters of every node. The pipelines must be idle:
// Runtime.Stats is only exact while its threads are quiescent.
func snapshot(nodes []*node, srv *server.Server, pr *pair) counters {
	time.Sleep(5 * time.Millisecond) // let sampled touch FASEs drain
	var c counters
	for _, n := range nodes {
		addDev(&c.dev, n.reg.Dev.Stats())
		addGC(&c.gc, n.reg.Dev.GroupCommitStats())
		st := n.rt.Stats()
		c.rt.Add(&st)
	}
	c.alloc = nodes[0].reg.Alloc.Stats()
	if srv != nil {
		srv.MetricsSnapshot(&c.srv)
		for _, s := range c.srv.Shards {
			c.shard.Gets += s.Gets
			c.shard.Sets += s.Sets
			c.shard.Hits += s.Hits
			c.shard.Misses += s.Misses
			c.shard.FastGets += s.FastGets
			c.shard.FastRetries += s.FastRetries
			c.shard.FastParks += s.FastParks
			c.shard.FastFallbacks += s.FastFallbacks
			c.shard.Touches += s.Touches
			c.shard.Evictions += s.Evictions
		}
	}
	if pr != nil {
		pr.sh.ReplSnapshot(&c.repl)
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics turns two snapshots around a window of ops requests that
// took elapsed into the count-based layer metrics.
func countMetrics(m map[string]float64, a, b *counters, ops uint64, elapsed time.Duration) {
	n := float64(ops)
	d := func(x, y uint64) float64 { return float64(y - x) }
	fences, flushes, nts := d(a.dev.Fences, b.dev.Fences), d(a.dev.Flushes, b.dev.Flushes), d(a.dev.NTStores, b.dev.NTStores)
	m["nvm.fences_per_op"] = ratio(fences, n)
	m["nvm.flushes_per_op"] = ratio(flushes, n)
	m["nvm.ntstores_per_op"] = ratio(nts, n)
	m["nvm.stores_per_op"] = ratio(d(a.dev.Stores, b.dev.Stores), n)
	m["nvm.loads_per_op"] = ratio(d(a.dev.Loads, b.dev.Loads), n)
	model := ratio(flushNS*flushes+fenceNS*fences+ntStoreNS*nts, n)
	m["nvm.model_ns_per_op"] = model
	m["nvm.model_share"] = ratio(model, ratio(float64(elapsed.Nanoseconds()), n))
	epochs := d(a.gc.Epochs, b.gc.Epochs)
	served, solo := d(a.gc.ServedFASEs, b.gc.ServedFASEs), d(a.gc.Solo, b.gc.Solo)
	m["nvm.gc_fases_per_epoch"] = ratio(served, epochs)
	m["nvm.gc_solo_share"] = ratio(solo, solo+served)
	m["nvm.gc_dwell_per_epoch"] = ratio(d(a.gc.DwellRounds, b.gc.DwellRounds), epochs)

	fases := d(a.rt.FASEs, b.rt.FASEs)
	m["core.boundaries_per_fase"] = ratio(d(a.rt.LoggedEntries, b.rt.LoggedEntries), fases)
	m["core.regions_per_fase"] = ratio(d(a.rt.Regions, b.rt.Regions), fases)
	m["core.stores_per_fase"] = ratio(d(a.rt.Stores, b.rt.Stores), fases)
	m["core.logged_bytes_per_fase"] = ratio(d(a.rt.LoggedBytes, b.rt.LoggedBytes), fases)

	m["nvalloc.mag_hit_share"] = ratio(d(a.alloc.MagHits, b.alloc.MagHits), d(a.alloc.Allocs, b.alloc.Allocs))
	m["nvalloc.allocated_bytes"] = float64(b.alloc.AllocatedBytes)

	m["go.allocs_per_op"] = ratio(d(a.mem.Mallocs, b.mem.Mallocs), n)
	m["go.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
}

// serverCountMetrics adds the count metrics only a server has.
func serverCountMetrics(m map[string]float64, a, b *counters) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	reqs := d(a.srv.Reqs, b.srv.Reqs)
	m["server.reqs_per_batch"] = ratio(reqs, d(a.srv.Batches, b.srv.Batches))
	m["server.bytes_out_per_req"] = ratio(d(a.srv.BytesOut, b.srv.BytesOut), reqs)
	gets, sets := d(a.shard.Gets, b.shard.Gets), d(a.shard.Sets, b.shard.Sets)
	m["server.fast_get_share"] = ratio(d(a.shard.FastGets, b.shard.FastGets), gets)
	m["server.fast_retry_share"] = ratio(d(a.shard.FastRetries, b.shard.FastRetries), gets)
	m["server.fast_fallback_share"] = ratio(d(a.shard.FastFallbacks, b.shard.FastFallbacks), gets)
	m["server.fast_parks_per_kget"] = 1000 * ratio(d(a.shard.FastParks, b.shard.FastParks), gets)
	m["server.touches_per_kget"] = 1000 * ratio(d(a.shard.Touches, b.shard.Touches), gets)
	m["server.evictions_per_kset"] = 1000 * ratio(d(a.shard.Evictions, b.shard.Evictions), sets)
	hits, misses := d(a.shard.Hits, b.shard.Hits), d(a.shard.Misses, b.shard.Misses)
	m["kv.mc_hit_share"] = ratio(hits, hits+misses)
}

// sampler polls, every 10 ms while a phase runs, what no counter
// difference gives: shard queue depth, replication lag, and the server's
// response count over time.
type sampler struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	depth  float64 // sum of sampled total queue depths
	n      int
	lagMax uint64
	at     []int64  // sample instants
	reqs   []uint64 // responses the server had emitted at each
}

func startSampler(srv *server.Server, pr *pair) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var st metrics.ServerStats
		var rs metrics.ReplStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			srv.MetricsSnapshot(&st)
			s.at, s.reqs = append(s.at, now()), append(s.reqs, st.Reqs)
			for i := range st.Shards {
				s.depth += float64(st.Shards[i].QueueDepth)
			}
			s.n++
			if pr != nil {
				pr.sh.ReplSnapshot(&rs)
				s.lagMax = max(s.lagMax, rs.LagRecs)
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// rate is the median over n equal stretches of the phase of responses
// emitted per second within the stretch; 0 if the phase was too short to
// split.
func (s *sampler) rate(n int) float64 {
	var rates []float64
	for w := 0; w < n; w++ {
		lo, hi := (len(s.at)-1)*w/n, (len(s.at)-1)*(w+1)/n
		if hi > lo {
			rates = append(rates, ratio(float64(s.reqs[hi]-s.reqs[lo]), float64(s.at[hi]-s.at[lo])/1e9))
		}
	}
	return medianF(rates)
}

// peakRSS is the process's resident-set high-water mark in MiB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// windows is how many stretches a timed phase is split into; the reported
// throughput and percentiles are medians over them, so a stall that hits
// one stretch does not move them.
const windows = 10

// satRecord is the latency buffer per connection for a closed-loop phase;
// past it samples are counted as dropped, not kept (400 000 req/s for 20 s
// still fit).
const satRecord = 4 << 20

// crashBudget draws how many device events a crash cycle lets pass
// before the device dies: enough for a few hundred requests, so the crash
// lands in the middle of traffic, inside whichever FASE issues that event.
func crashBudget(rng *rand.Rand) int64 { return 20000 + rng.Int63n(40000) }

// satResult is one closed-loop phase at saturation.
type satResult struct {
	ph       phaseStats
	rate     float64 // responses per second, median over the windows
	p50, p99 float64 // ns, medians over the windows
	samples  int
	smp      *sampler
}

// saturate runs the sat phase: closed loop, `pipeline` requests in flight
// on each connection, every latency kept.
func saturate(w *world, d time.Duration) satResult {
	smp := startSampler(w.srv, w.pr)
	ph := runPhase(w.cs, phase{d: d, record: satRecord})
	smp.finish()
	r := satResult{ph: ph, smp: smp, rate: smp.rate(windows)}
	if r.rate == 0 {
		r.rate = ratio(float64(ph.completed), float64(ph.end-ph.start)/1e9)
	}
	var lats []*latRec
	for _, c := range w.cs {
		lats = append(lats, c.lat)
		r.samples += len(c.lat.ns)
	}
	wq := windowed(lats, windows, 0.50, 0.99)
	r.p50, r.p99 = wq[0], wq[1]
	return r
}

// runServer runs one server workload end to end: set-up, warm-up, the
// sat phase every end-to-end number comes from, in the traced run the
// open-loop lat phase, then the restarts.
func runServer(o runOpts) (*result, error) {
	res := newResult()
	m := res.metrics
	w, setupS, err := setUp(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	tr := w.tr
	nodes := []*node{w.primary}
	if w.standby != nil {
		nodes = append(nodes, w.standby)
	}
	note := func(ph *phaseStats, name string) {
		res.attempted += ph.sent + ph.refused
		res.failed += ph.failed()
		if ph.firstErr != "" && len(res.errs) < 8 {
			res.errs = append(res.errs, name+": "+ph.firstErr)
		}
	}

	warm := runPhase(w.cs, phase{d: o.sc.warm})
	note(&warm, "warm")

	// The traced run saturates twice, first with the recorders off; the
	// throughput lost with them on is the tracing overhead.
	var untraced float64
	if tr != nil {
		r := saturate(w, o.sc.sat)
		note(&r.ph, "sat-untraced")
		untraced = r.rate
		tr.reset()
		tr.on.Store(true)
	}
	before := snapshot(nodes, w.srv, w.pr)
	sat := saturate(w, o.sc.sat)
	if tr != nil {
		tr.on.Store(false)
	}
	after := snapshot(nodes, w.srv, w.pr)
	note(&sat.ph, "sat")
	m["ops_per_s"] = sat.rate
	m["p50_us"], m["p99_us"] = sat.p50/1e3, sat.p99/1e3
	res.samples["p50_us"], res.samples["p99_us"] = sat.samples, sat.samples
	countMetrics(m, &before, &after, sat.ph.completed, time.Duration(sat.ph.end-sat.ph.start))
	serverCountMetrics(m, &before, &after)
	m["server.queue_depth_mean"] = ratio(sat.smp.depth, float64(sat.smp.n))
	m["nvm_bytes_per_item"] = ratio(float64(after.alloc.AllocatedBytes), float64(w.primary.items()))
	m["client.sent"] = float64(sat.ph.sent)
	m["client.completed"] = float64(sat.ph.completed)
	m["client.failed"] = float64(sat.ph.failed())
	if w.pr != nil {
		m["replica.bytes_per_record"] = ratio(float64(after.repl.Bytes-before.repl.Bytes), float64(after.repl.Records-before.repl.Records))
		m["replica.lag_recs_max"] = float64(sat.smp.lagMax)
		m["replica.degraded"] = float64(after.repl.Degraded)
	}
	if tr != nil {
		m["trace.overhead_share"] = 1 - ratio(sat.rate, untraced)
		harvest(tr, w.cs, res, o)
		openLoop(w, o, res, note)
	}

	// Restarts: crash the device under traffic, recover, check acked =>
	// durable, serve again. The replicated workload's first crash is also
	// its failover.
	rng := rand.New(rand.NewSource(o.seed*31 + 7))
	for _, c := range w.cs {
		c.track = true
	}
	var restarts restartStats
	for cycle := 0; cycle < o.sc.crashCycles; cycle++ {
		w.primary.reg.Dev.ArmLocalCrash(crashBudget(rng))
		ph := runPhase(w.cs, phase{d: 10 * time.Second, until: w.srv.Crashed()})
		select {
		case <-w.srv.Crashed():
		default:
			return nil, fmt.Errorf("crash cycle %d: the crash budget never fired", cycle)
		}
		// Replies before the crash are still checked; the transport error
		// that ends the phase is expected.
		res.attempted += ph.completed
		res.failed += ph.errReplies + ph.wrong
		if ph.firstErr != "" {
			res.fail("crash cycle %d: %s", cycle, ph.firstErr)
		}
		w.srv.Close()
		if w.pr != nil {
			// The primary is dead: the standby promotes, and everything
			// acknowledged must be on it.
			if err := <-w.pr.done; err != nil {
				return nil, fmt.Errorf("standby did not promote: %w", err)
			}
			if _, err := w.standby.verify(o.wl, w.cs, true, false); err != nil {
				res.fail("promoted standby: %v", err)
			}
			w.pr = nil
		}
		rt, err := w.primary.restart(rng)
		if err != nil {
			return nil, fmt.Errorf("crash cycle %d: %w", cycle, err)
		}
		last := cycle == o.sc.crashCycles-1
		if _, err := w.primary.verify(o.wl, w.cs, last, true); err != nil {
			res.fail("crash cycle %d: %v", cycle, err)
		}
		restarts.add(rt)
		if w.srv, err = w.primary.serve(o.wl, nil, w.cs); err != nil {
			return nil, err
		}
	}
	if res.attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	restarts.report(m)
	m["setup_s"] = setupS
	m["peak_rss_mb"] = peakRSS()
	return res, nil
}

// openLoop is the traced run's lat phase: every burstEvery each
// connection sends the requests that became due at the workload's frozen
// aggregate rate, whether or not earlier ones were answered, and each
// latency runs from the due instant. It prices what the closed loop
// cannot see — how long a request waits when arrivals do not wait for the
// server — but on the reference host its tail follows the hypervisor's
// wake-up latency (run-to-run spread of p99 above 50 %), so it feeds the
// client layer's metrics and no end-to-end bound.
func openLoop(w *world, o runOpts, res *result, note func(*phaseStats, string)) {
	m := res.metrics
	per := int(o.sc.lat.Seconds()*float64(o.wl.rate)/conns) + 1024
	lat := runPhase(w.cs, phase{d: o.sc.lat, rate: o.wl.rate, record: per})
	note(&lat, "lat")
	var lats, lags []*latRec
	for _, c := range w.cs {
		lats = append(lats, c.lat)
		lags = append(lags, c.lag)
	}
	ld, lg := mergeDist(lats...), mergeDist(lags...)
	m["client.open_p50_us"] = ld.quantile(0.50) / 1e3
	m["client.open_p99_us"] = ld.quantile(0.99) / 1e3
	m["client.over_1ms_share"] = ld.shareOver(1e6)
	m["client.sched_lag_p99_us"] = lg.quantile(0.99) / 1e3
	m["client.p999_us"] = ld.quantile(0.999) / 1e3
	m["client.max_us"] = ld.max() / 1e3
	for _, k := range []string{"client.open_p50_us", "client.open_p99_us", "client.p999_us"} {
		res.samples[k] = len(ld)
	}
	m["client.sent"] += float64(lat.sent)
	m["client.completed"] += float64(lat.completed)
	m["client.failed"] += float64(lat.failed())
}
