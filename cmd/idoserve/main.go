// Command idoserve runs the networked KV front end: the memcache text
// protocol or RESP over the iDO failure-atomicity runtime, with requests
// hashed to per-shard commit pipelines.
//
// Usage:
//
//	idoserve                                  # memcache on :11211
//	idoserve -proto resp -addr :6379
//	idoserve -admin :8080                     # /metrics /healthz /readyz /debug/*
//	idoserve -replicate :11311                # primary: ship the iDO log to a standby
//	idoserve -standby -primary host:11311     # hot standby: apply, promote on primary death
//	idoserve -load -conns 16 -pipeline 8 -duration 2s   # in-process load run
//	idoserve -load -targets host1:11211,host2:11211     # fault-tolerant load over TCP
//
// The default mode listens on -addr and serves until SIGINT/SIGTERM,
// then drains gracefully: in-flight FASEs finish, their responses
// flush, a final fence runs, and the process exits
// 0. With -load it instead drives the built-in load generator (the
// Fig. 5c GET/SET/DELETE mix) and prints client throughput, latency
// quantiles, and device fences per operation.
//
// With -replicate the server is a replication primary: every committed
// mutation is shipped, in commit order, to a standby attached on that
// port, and client completions ride the standby's receipt acks
// (semi-synchronous). With -standby the process applies the stream
// from -primary through its own FASE machinery, reports not-ready on
// /readyz while replicating, and on primary death promotes itself and
// starts serving on -addr.
//
// The admin plane (-admin) serves Prometheus text on /metrics, liveness
// and readiness on /healthz + /readyz, the full JSON snapshot on
// /debug/snapshot, and a windowed Chrome trace capture on
// /debug/trace?ms=N. The same counters answer the in-band memcache
// `stats` verb and RESP `INFO` command on the data port, including the
// replication role and lag block.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/replica"
	"github.com/ido-nvm/ido/internal/server"
)

func main() {
	proto := flag.String("proto", "memcache", "wire protocol: memcache|resp")
	addr := flag.String("addr", ":11211", "listen address (serve mode)")
	admin := flag.String("admin", "", "admin listen address (/metrics, /healthz, /readyz, /debug/*); empty = off")
	statsevery := flag.Duration("statsevery", 0, "print a stats snapshot line this often (0 = off)")
	trace := flag.Bool("trace", true, "keep live event rings for /debug/trace (counters stay on regardless)")
	shards := flag.Int("shards", 16, "shard pipelines (rounded up to a power of two)")
	buckets := flag.Int("buckets", 64, "hash buckets per shard")
	size := flag.Int("size", 1<<26, "simulated NVM region bytes")
	maxitems := flag.Int("maxitems", 0, "per-shard live-item watermark; the pipeline evicts LRU items above it (0 = unbounded)")
	maxconns := flag.Int("maxconns", 0, "reject connections past this many with a busy error (0 = unbounded)")
	idletimeout := flag.Duration("idletimeout", 0, "close connections idle for this long (0 = never)")
	draintimeout := flag.Duration("draintimeout", 5*time.Second, "graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM")
	replicate := flag.String("replicate", "", "primary: listen here for a standby and ship the iDO log to it (empty = no replication)")
	standby := flag.Bool("standby", false, "run as a hot standby: apply the stream from -primary, promote on primary death")
	primaryAddr := flag.String("primary", "", "with -standby: the primary's -replicate address")
	load := flag.Bool("load", false, "run the in-process load generator instead of listening")
	conns := flag.Int("conns", 16, "with -load: client connections")
	pipeline := flag.Int("pipeline", 8, "with -load: in-flight requests per connection")
	duration := flag.Duration("duration", 2*time.Second, "with -load: measurement interval")
	keys := flag.Uint64("keys", 4096, "with -load: key-space size")
	setpct := flag.Int("setpct", 40, "with -load: SET percentage of the mix")
	delpct := flag.Int("delpct", 20, "with -load: DELETE percentage of the mix")
	zipf := flag.Float64("zipf", 0, "with -load: key skew exponent (>1; 0 = uniform)")
	mget := flag.Int("mget", 1, "with -load: keys per GET request (multi-get batch)")
	rate := flag.Int("rate", 0, "with -load: open-loop aggregate request rate, ops/s (0 = closed loop)")
	seed := flag.Int64("seed", 1, "with -load: workload seed")
	targets := flag.String("targets", "", "with -load: comma-separated server addresses to drive over TCP with the fault-tolerant client (failover order; empty = in-process)")
	optimeout := flag.Duration("optimeout", 2*time.Second, "with -load -targets: per-operation timeout before the connection is declared lost")
	flag.Parse()

	if *standby && *primaryAddr == "" {
		fatalf("-standby requires -primary host:port")
	}
	if *standby && *load {
		fatalf("-standby and -load are mutually exclusive")
	}

	// The tracer is on by default: emit is lock-free and allocation-free,
	// and the admin plane's quantiles come from its histograms. Modest
	// ring caps bound memory; /debug/trace rotates them per capture, so a
	// long-lived process can still produce a fresh window any time.
	var tr *obs.Tracer
	if *trace {
		tr = obs.New(obs.Config{ThreadRingCap: 1 << 12, DeviceRingCap: 1 << 13})
	}

	cfg := nvm.Config{Size: *size, Tracer: tr}
	reg := region.Create(*size, cfg)

	// The admin plane comes up before the store attaches so /readyz
	// reports "attaching" (503) during boot and recovery, then flips
	// ready once the shards are serving — or, on a standby, once
	// promotion makes it the serving primary.
	coll := metrics.NewCollector(tr, reg.Dev)
	health := metrics.NewHealth("attaching store")
	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			fatalf("admin listen: %v", err)
		}
		fmt.Printf("idoserve: admin plane on http://%s\n", aln.Addr())
		go func() {
			if err := http.Serve(aln, metrics.NewAdmin(coll, health).Handler()); err != nil {
				fmt.Fprintf(os.Stderr, "idoserve: admin: %v\n", err)
			}
		}()
	}

	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		fatalf("attach runtime: %v", err)
	}

	var store server.Store
	var sproto server.Proto
	var lproto loadgen.Proto
	var err error
	switch *proto {
	case "memcache":
		sproto, lproto = server.ProtoMemcache, loadgen.ProtoMemcache
		store, err = server.NewMcStore(&memcache.Env{Reg: reg, LM: lm}, *shards, *buckets)
	case "resp":
		sproto, lproto = server.ProtoRESP, loadgen.ProtoRESP
		store, err = server.NewRespStore(&redis.Env{Reg: reg}, *shards, *buckets)
	default:
		fatalf("unknown protocol %q", *proto)
	}
	if err != nil {
		fatalf("create store: %v", err)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Standby mode: replicate until the primary dies, then fall through
	// to the serve path as the promoted primary.
	if *standby {
		sb, err := replica.NewStandby(replica.StandbyConfig{
			Store: store, RT: rt, Reg: reg,
		})
		if err != nil {
			fatalf("create standby: %v", err)
		}
		coll.Repl = sb
		health.Set(false, "standby: replicating from "+*primaryAddr)
		fmt.Printf("idoserve: standby replicating from %s\n", *primaryAddr)
		stopped := make(chan struct{})
		go func() {
			select {
			case <-sig:
				fmt.Println("idoserve: interrupt, stopping standby")
				sb.Stop()
			case <-stopped:
			}
		}()
		err = sb.Run(func() (net.Conn, error) {
			return net.Dial("tcp", *primaryAddr)
		})
		close(stopped)
		switch err {
		case nil:
			var rs metrics.ReplStats
			sb.ReplSnapshot(&rs)
			fmt.Printf("idoserve: primary lost; promoted after applying %d records\n", rs.Records)
		case replica.ErrStandbyStopped:
			return
		default:
			fatalf("standby: %v", err)
		}
	}

	// Replication primary (or promoted standby chaining a new standby):
	// a shipper publishes every committed mutation; client completions
	// ride the standby's receipt acks (semi-synchronous).
	var sh *replica.Shipper
	if *replicate != "" {
		sh, err = replica.NewShipper(replica.ShipperConfig{Shards: store.NumShards()})
		if err != nil {
			fatalf("create shipper: %v", err)
		}
		rln, err := net.Listen("tcp", *replicate)
		if err != nil {
			fatalf("replication listen: %v", err)
		}
		fmt.Printf("idoserve: shipping replication log on %s\n", rln.Addr())
		go sh.Serve(rln)
		coll.Repl = sh
	}

	srv, err := server.New(rt, store, server.Config{
		Proto: sproto, Metrics: coll, Repl: sh,
		MaxItems: *maxitems, MaxConns: *maxconns, IdleTimeout: *idletimeout}, tr)
	if err != nil {
		fatalf("create server: %v", err)
	}
	health.Set(true, "serving")
	health.NotReadyOn(srv.Crashed(), "device crash: restart for recovery")

	if *load {
		lcfg := loadgen.Config{
			Proto:       lproto,
			Conns:       *conns,
			Pipeline:    *pipeline,
			Keys:        *keys,
			SetPct:      *setpct,
			DelPct:      *delpct,
			Zipf:        *zipf,
			MGet:        *mget,
			OpenRateOPS: *rate,
			Duration:    *duration,
			Seed:        *seed,
			OpTimeout:   *optimeout,
		}
		if *statsevery > 0 {
			lcfg.ReportEvery = *statsevery
			lcfg.Report = loadgen.ReportPrinter(os.Stdout)
		}
		runLoad(srv, reg.Dev, lcfg, *targets)
		srv.Close()
		return
	}

	if *statsevery > 0 {
		go statsLogger(coll, *statsevery, srv.Crashed())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	fmt.Printf("idoserve: %s protocol on %s, %d shards\n",
		sproto, ln.Addr(), store.NumShards())
	go func() {
		<-sig
		fmt.Println("idoserve: interrupt, draining")
		health.Set(false, "draining")
		err := srv.Drain(*draintimeout)
		st := coll.Snapshot().Srv
		fmt.Printf("idoserve: served %d requests in %d write batches\n", st.Reqs, st.Batches)
		if err != nil {
			fmt.Fprintf(os.Stderr, "idoserve: drain: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()
	if err := srv.Serve(ln); err != nil && err != server.ErrServerClosed {
		fatalf("serve: %v", err)
	}
	st := coll.Snapshot().Srv
	fmt.Printf("idoserve: served %d requests in %d write batches\n", st.Reqs, st.Batches)
}

// statsLogger prints one interval line per period: the -statsevery view
// of the same deltas /metrics exposes.
func statsLogger(coll *metrics.Collector, every time.Duration, stop <-chan struct{}) {
	prev := coll.Snapshot()
	tick := time.NewTicker(every)
	defer tick.Stop()
	var d metrics.Delta
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			cur := coll.Snapshot()
			metrics.Diff(prev, cur, &d)
			fmt.Printf("stats: %8.0f req/s  fences/op %.2f  p50 %v  p99 %v  depth %d  conns %d\n",
				d.OpsPerSec, d.FencesPerOp,
				time.Duration(d.ReqP50NS), time.Duration(d.ReqP99NS),
				cur.Srv.Totals().QueueDepth, cur.Srv.ConnsOpen)
			prev = cur
		}
	}
}

// runLoad drives either the in-process server over memory pipes or, with
// targets, remote servers over TCP with the fault-tolerant client, and
// prints the result.
func runLoad(srv *server.Server, dev *nvm.Device, cfg loadgen.Config, targets string) {
	dev.ResetStats()
	var res *loadgen.Result
	var err error
	if targets != "" {
		var dials []func() (net.Conn, error)
		for _, a := range strings.Split(targets, ",") {
			a := strings.TrimSpace(a)
			if a == "" {
				continue
			}
			dials = append(dials, func() (net.Conn, error) {
				return net.Dial("tcp", a)
			})
		}
		if len(dials) == 0 {
			fatalf("-targets has no addresses")
		}
		res, err = loadgen.RunFT(cfg, dials)
	} else {
		res, err = loadgen.Run(cfg, func() (net.Conn, error) {
			client, srvEnd := loadgen.MemPipe(64 << 10)
			if serr := srv.ServeConn(srvEnd); serr != nil {
				return nil, serr
			}
			return client, nil
		})
	}
	if err != nil {
		fatalf("loadgen: %v", err)
	}
	fences := dev.Stats().Fences
	fmt.Printf("ops %d (errs %d)  %.0f ops/s  hits %d misses %d\n",
		res.Ops, res.Errs, float64(res.Ops)/res.Elapsed.Seconds(), res.Hits, res.Misses)
	fmt.Printf("latency p50 %v  p99 %v  max %v  mean %v\n",
		time.Duration(res.P50), time.Duration(res.P99),
		time.Duration(res.Max), time.Duration(res.MeanNS))
	if res.Retries+res.Reconnects+res.Failovers+res.TimedOut > 0 {
		fmt.Printf("robustness: retries %d  reconnects %d  failovers %d  lost in flight %d\n",
			res.Retries, res.Reconnects, res.Failovers, res.TimedOut)
	}
	if res.Ops > 0 && targets == "" {
		fmt.Printf("fences %d  %.2f fences/op\n", fences, float64(fences)/float64(res.Ops))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "idoserve: "+format+"\n", args...)
	os.Exit(1)
}
