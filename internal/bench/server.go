package bench

import (
	"fmt"
	"net"

	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/server"
	"github.com/ido-nvm/ido/internal/stats"
)

// ServerResult is one cell of the end-to-end server sweep.
type ServerResult struct {
	Series      string // "direct" or "shared"
	Conns       int
	Pipeline    int
	Ops         uint64
	Errs        uint64
	MopsPS      float64
	P50NS       uint64 // client-observed request latency
	P99NS       uint64
	Fences      uint64 // device fences in the measured interval
	FencesPerOp float64
}

// RunServer regenerates the end-to-end networked-KV experiment: the
// memcache front end over the iDO runtime, driven by the closed-loop
// generator on in-memory connections, sweeping client connections ×
// pipelining depth for direct persists versus drain sharing.
// The workload is Fig. 5c's mix (40% SET, 20% DELETE, 40% GET) over a
// prefilled key space. Concurrency reaches the persistence domain
// through the shard pipelines — 16 shard threads committing FASEs
// back-to-back — so at high connection counts shard threads share fence
// drains exactly as worker threads do in the commit microbenchmark, and
// the client sees the win as ops/s.
func RunServer(o Options) ([]ServerResult, error) {
	conns := []int{1, 2, 4, 8, 16}
	pipelines := []int{1, 8}
	if o.Quick {
		conns = []int{1, 16}
		pipelines = []int{4}
	}
	type job struct {
		series   string
		gc       bool
		conns    int
		pipeline int
	}
	var jobs []job
	for _, series := range []job{{series: "direct"}, {series: "shared", gc: true}} {
		for _, p := range pipelines {
			for _, nc := range conns {
				jobs = append(jobs, job{series.series, series.gc, nc, p})
			}
		}
	}
	out := make([]ServerResult, len(jobs))
	err := runPoints(o, len(jobs), func(i int) error {
		j := jobs[i]
		label := fmt.Sprintf("server/%s/c%d/p%d", j.series, j.conns, j.pipeline)
		res, fences, err := runServerPoint(o, label, j.gc, j.conns, j.pipeline)
		if err != nil {
			return fmt.Errorf("server %s/c%d/p%d: %w", j.series, j.conns, j.pipeline, err)
		}
		r := ServerResult{Series: j.series, Conns: j.conns, Pipeline: j.pipeline,
			Ops: res.Ops, Errs: res.Errs, P50NS: res.P50, P99NS: res.P99, Fences: fences}
		r.MopsPS = stats.Throughput(res.Ops, res.Elapsed)
		if res.Ops > 0 {
			r.FencesPerOp = float64(fences) / float64(res.Ops)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range pipelines {
		fig := &stats.Figure{Title: fmt.Sprintf("Server end-to-end throughput, pipeline depth %d (memcache/iDO, Fig. 5c mix)", p),
			XLabel: "connections", YLabel: "Mops/s"}
		for i, j := range jobs {
			if j.pipeline == p {
				fig.Add(j.series, float64(j.conns), out[i].MopsPS)
			}
		}
		fprintf(o.out(), "%s\n", fig)
	}
	for _, r := range out {
		fprintf(o.out(), "  %-8s c=%-2d p=%-2d %8.3f Mops/s  p50 %7d ns  p99 %7d ns %6.2f fences/op\n",
			r.Series, r.Conns, r.Pipeline, r.MopsPS, r.P50NS, r.P99NS, r.FencesPerOp)
	}
	return out, nil
}

// ServerReadResult is one cell of the read-path sweep.
type ServerReadResult struct {
	Series      string // "slot", "fast", or "fast-mget8"
	Conns       int
	Ops         uint64
	Errs        uint64
	MopsPS      float64
	P50NS       uint64
	P99NS       uint64
	Fences      uint64
	FencesPerOp float64
	FastGets    uint64 // gets served on the lock-free lane
	Fallbacks   uint64 // fast attempts that fell back to the slot path
}

// RunServerReadPath regenerates the read-path experiment: a GET-heavy
// mix (90% GET, 10% SET, Zipf-skewed keys — the memcached-in-production
// shape) over the memcache front end, sweeping connections for the
// slot-path baseline ("slot", every get dispatched through its shard
// pipeline) against the lock-free fast lane ("fast") and the fast lane
// with 8-key multi-get batches ("fast-mget8", one scatter-gather request
// per 8 keys). The acceptance bars: fast ≥ 2x slot served ops/s at 16
// connections, and the residual fences/op tracking the 10% write leg
// alone — reads on the fast lane never fence.
func RunServerReadPath(o Options) ([]ServerReadResult, error) {
	conns := []int{1, 4, 16}
	if o.Quick {
		conns = []int{1, 16}
	}
	type job struct {
		series      string
		disableFast bool
		mget        int
		conns       int
	}
	var jobs []job
	for _, series := range []struct {
		name        string
		disableFast bool
		mget        int
	}{{"slot", true, 1}, {"fast", false, 1}, {"fast-mget8", false, 8}} {
		for _, nc := range conns {
			jobs = append(jobs, job{series.name, series.disableFast, series.mget, nc})
		}
	}
	out := make([]ServerReadResult, len(jobs))
	err := runPoints(o, len(jobs), func(i int) error {
		j := jobs[i]
		label := fmt.Sprintf("serverread/%s/c%d", j.series, j.conns)
		res, fences, st, err := runServerPointCfg(o, serverPoint{
			label: label, conns: j.conns, pipeline: 8,
			setPct: 10, delPct: 0, zipf: 1.1,
			mget: j.mget, disableFast: j.disableFast,
		})
		if err != nil {
			return fmt.Errorf("serverread %s/c%d: %w", j.series, j.conns, err)
		}
		r := ServerReadResult{Series: j.series, Conns: j.conns,
			Ops: res.Ops, Errs: res.Errs, P50NS: res.P50, P99NS: res.P99, Fences: fences}
		r.MopsPS = stats.Throughput(res.Ops, res.Elapsed)
		if res.Ops > 0 {
			r.FencesPerOp = float64(fences) / float64(res.Ops)
		}
		for _, sh := range st.Shards {
			r.FastGets += sh.FastGets
			r.Fallbacks += sh.FastFallbacks
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{Title: "Server read-path throughput, 90% GET Zipf mix, pipeline depth 8 (memcache/iDO)",
		XLabel: "connections", YLabel: "Mops/s"}
	for i, j := range jobs {
		fig.Add(j.series, float64(j.conns), out[i].MopsPS)
	}
	fprintf(o.out(), "%s\n", fig)
	for _, r := range out {
		fprintf(o.out(), "  %-10s c=%-2d %8.3f Mops/s  p50 %7d ns  p99 %7d ns %6.2f fences/op  fast %d  fallback %d\n",
			r.Series, r.Conns, r.MopsPS, r.P50NS, r.P99NS, r.FencesPerOp, r.FastGets, r.Fallbacks)
	}
	return out, nil
}

// serverPoint parameterizes one end-to-end measurement cell shared by
// the mixed-workload sweep and the read-path sweep.
type serverPoint struct {
	label       string
	gc          bool
	conns       int
	pipeline    int
	setPct      int
	delPct      int
	zipf        float64 // key skew exponent when > 1
	mget        int     // keys per GET batch (<= 1: single-key gets)
	disableFast bool    // force every GET through the slot path
}

// runServerPoint measures one cell of the Fig. 5c-mix sweep; the
// parameterized core is runServerPointCfg.
func runServerPoint(o Options, label string, gc bool, nconns, pipeline int) (*loadgen.Result, uint64, error) {
	res, fences, _, err := runServerPointCfg(o, serverPoint{
		label: label, gc: gc,
		conns: nconns, pipeline: pipeline, setPct: 40, delPct: 20,
	})
	return res, fences, err
}

// runServerPointCfg measures one cell: a fresh world and server, the
// key space prefilled through a direct thread (so the GET leg of the
// mix hits), then the load generator over in-memory pipes for
// o.Duration. Returns the client-side result, the device fence count
// for the measured interval, and the server's shard counters (fast-lane
// gets, fallbacks) at the end of the run.
func runServerPointCfg(o Options, pt serverPoint) (*loadgen.Result, uint64, metrics.ServerStats, error) {
	var none metrics.ServerStats
	cfg := nvmConfig(o.DeviceBytes, 0)
	cfg.FlushNS *= gcCostScale
	cfg.FenceNS *= gcCostScale
	cfg.NTStoreNS *= gcCostScale
	cfg.Tracer = o.tracer(pt.label)
	cfg.GroupCommit = nvm.GroupCommitConfig{Enabled: pt.gc}
	w, err := newWorldCfg(mkSpec("ido").mk, o.DeviceBytes, cfg)
	if err != nil {
		return nil, 0, none, err
	}
	shards, buckets := 16, 64
	keys := uint64(4096)
	if o.Quick {
		shards, keys = 8, 1024
	}
	store, err := server.NewMcStore(&memcache.Env{Reg: w.reg, LM: w.lm}, shards, buckets)
	if err != nil {
		return nil, 0, none, err
	}
	srv, err := server.New(w.rt, store, server.Config{
		Proto: server.ProtoMemcache, DisableFastReads: pt.disableFast}, nil)
	if err != nil {
		return nil, 0, none, err
	}
	defer srv.Close()

	th, err := w.rt.NewThread()
	if err != nil {
		return nil, 0, none, err
	}
	var kb [8]byte
	for k := uint64(0); k < keys; k++ {
		k0, k1, ok := server.McKeyWords(loadgen.AppendKey(kb[:0], k))
		if !ok {
			return nil, 0, none, fmt.Errorf("unstorable warm key %d", k)
		}
		shard := store.ShardOf(k0, k1)
		v := k
		th.Exec(func() { store.Set(th, shard, k0, k1, v) })
	}

	dev := w.reg.Dev
	dev.ResetStats()
	res, err := loadgen.Run(loadgen.Config{
		Proto:    loadgen.ProtoMemcache,
		Conns:    pt.conns,
		Pipeline: pt.pipeline,
		Keys:     keys,
		SetPct:   pt.setPct,
		DelPct:   pt.delPct,
		Zipf:     pt.zipf,
		MGet:     pt.mget,
		Duration: o.Duration,
		Seed:     o.seed(),
	}, func() (net.Conn, error) {
		client, srvEnd := loadgen.MemPipe(64 << 10)
		if serr := srv.ServeConn(srvEnd); serr != nil {
			return nil, serr
		}
		return client, nil
	})
	if err != nil {
		return nil, 0, none, err
	}
	fences := dev.Stats().Fences
	var st metrics.ServerStats
	srv.MetricsSnapshot(&st)
	return res, fences, st, nil
}
