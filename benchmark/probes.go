package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/justdo"
	"github.com/ido-nvm/ido/internal/baselines/origin"
	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/server"
	"github.com/ido-nvm/ido/internal/vm"
)

// The layer probes: small fixed experiments, the same in every traced
// run whatever its workload, that price the layers no workload's traffic
// isolates — the simulator's own call costs (which also expose this
// process's spin calibration), the allocator, the baselines and data
// structures of the paper's figures, kv/redis, the compiler and VM, and
// the server at one request in flight. They are the referee numbers for
// the ROADMAP's shrink-at-constant-behaviour items; none feeds an
// end-to-end metric.

const (
	probeBytes = 32 << 20
	probeKeys  = 4096
)

func probeDevice() nvm.Config {
	cfg := costModel()
	cfg.Size = probeBytes
	return cfg
}

// probeWorld formats a small region under the cost model and attaches rt.
func probeWorld(rt persist.Runtime) (*region.Region, *locks.Manager, error) {
	reg := region.Create(probeBytes, probeDevice())
	lm := locks.NewManager(reg)
	if err := rt.Attach(reg, lm); err != nil {
		return nil, nil, err
	}
	return reg, lm, nil
}

// perCall times n calls of f one by one and returns the median, the same
// statistic the traced decorators report.
func perCall(n int, f func(i int)) float64 {
	r := newLatRec(n)
	for i := 0; i < n; i++ {
		t0 := now()
		f(i)
		r.add(now() - t0)
	}
	return mergeDist(r).quantile(0.5)
}

// loopNS times n calls of f as one loop: mean nanoseconds per call, for
// calls too short to time singly.
func loopNS(n int, f func(i int)) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(now()-t0) / float64(n)
}

// fenceCallNS is the cost of one persist fence in this process: the 400 ns
// of the cost model as this process's spin calibration renders them, plus
// the simulator's bookkeeping. Every run records it; two runs whose values
// differ by more than a few percent measured different devices.
func fenceCallNS(n int) float64 {
	cfg := probeDevice()
	cfg.Size = 1 << 16
	dev := nvm.New(cfg)
	dev.Fence()
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		best = min(best, loopNS(n, func(int) { dev.Fence() }))
	}
	return best
}

func probeNVM(m map[string]float64, n int) {
	cfg := probeDevice()
	cfg.Size = 1 << 22
	dev := nvm.New(cfg)
	const span = 1 << 20
	addr := func(i int) uint64 { return uint64(i*64) & (span - 1) }
	m["nvm.fence_call_ns"] = fenceCallNS(n)
	m["nvm.store_call_ns"] = loopNS(n, func(i int) { dev.Store64(addr(i), uint64(i)) })
	var sink uint64
	m["nvm.load_call_ns"] = loopNS(n, func(i int) { sink += dev.Load64(addr(i)) })
	// Every write-back finds its line dirty: dirty a batch, then time only
	// the write-backs.
	var clwb int64
	for done := 0; done < n; done += 512 {
		for i := 0; i < 512; i++ {
			dev.Store64(addr(i), uint64(i))
		}
		t0 := now()
		for i := 0; i < 512; i++ {
			dev.CLWB(addr(i))
		}
		clwb += now() - t0
	}
	m["nvm.clwb_call_ns"] = float64(clwb) / float64((n+511)/512*512)
	m["nvm.storent_call_ns"] = loopNS(n, func(i int) { dev.StoreNT(addr(i), uint64(i)) })
	_ = sink
}

func probeAlloc(m map[string]float64, n int) error {
	reg := region.Create(probeBytes, probeDevice())
	addrs := make([]uint64, n)
	var err error
	m["nvalloc.alloc_ns"] = perCall(n, func(i int) {
		if a, e := reg.Alloc.Alloc(56); e != nil {
			err = e
		} else {
			addrs[i] = a
		}
	})
	if err != nil {
		return fmt.Errorf("alloc probe: %w", err)
	}
	m["nvalloc.free_ns"] = perCall(n, func(i int) { reg.Alloc.Free(addrs[i]) })
	return nil
}

// probeStore prices every kv/memcache store call directly, for the ones a
// workload's own traffic never makes (a DELETE on kv-read-zipf, an
// eviction on kv-write-mix).
func probeStore(m map[string]float64, n int) error {
	node, err := newNode(probeBytes, 1, probeKeys, nil, false)
	if err != nil {
		return err
	}
	th, err := node.rt.NewThread()
	if err != nil {
		return err
	}
	st := node.store
	word := func(i int) uint64 { k0, _ := keyWords(uint32(i % probeKeys)); return k0 }
	for i := 0; i < probeKeys; i++ {
		st.Set(th, 0, word(i), 0, uint64(i))
	}
	m["kv.mc_set_ns"] = perCall(n, func(i int) { st.Set(th, 0, word(i), 0, uint64(i)) })
	m["kv.mc_get_ns"] = perCall(n, func(i int) { st.Get(th, 0, word(i), 0) })
	m["kv.mc_getfast_ns"] = perCall(n, func(i int) { st.GetFast(0, word(i), 0) })
	m["kv.mc_touch_ns"] = perCall(n, func(i int) { st.Touch(th, 0, word(i), 0, 16, 16) })
	dels := newLatRec(n)
	for i := 0; i < n; i++ {
		t0 := now()
		st.Del(th, 0, word(i), 0)
		dels.add(now() - t0)
		st.Set(th, 0, word(i), 0, uint64(i))
	}
	m["kv.mc_del_ns"] = mergeDist(dels).quantile(0.5)
	m["kv.mc_evict_ns"] = perCall(min(n, probeKeys/2), func(int) { st.EvictOne(th, 0) })
	return nil
}

func probeRedis(m map[string]float64, n int) error {
	rt := core.New(core.DefaultConfig())
	reg, _, err := probeWorld(rt)
	if err != nil {
		return err
	}
	db, _, err := redis.New(&redis.Env{Reg: reg}, probeKeys)
	if err != nil {
		return err
	}
	th, err := rt.NewThread()
	if err != nil {
		return err
	}
	for i := 0; i < probeKeys; i++ {
		db.Set(th, uint64(i+1), uint64(i))
	}
	m["kv.redis_set_ns"] = perCall(n, func(i int) { db.Set(th, uint64(i%probeKeys+1), uint64(i)) })
	m["kv.redis_get_ns"] = perCall(n, func(i int) { db.Get(th, uint64(i%probeKeys+1)) })
	return nil
}

// probeBaselines runs one Fig. 5a op stream (50 % set / 50 % get over
// probeKeys keys of kv/memcache) under iDO, Atlas, JUSTDO and the
// uninstrumented origin, in interleaved chunks so a slow stretch of the
// host taxes all four alike.
func probeBaselines(m map[string]float64, n int) error {
	type side struct {
		rt    persist.Runtime
		cache *memcache.Cache
		th    persist.Thread
		rng   *rand.Rand
		ns    int64
	}
	sides := []*side{
		{rt: core.New(core.DefaultConfig())},
		{rt: atlas.New(atlas.Config{})},
		{rt: justdo.New()},
		{rt: origin.New()},
	}
	for _, s := range sides {
		reg, lm, err := probeWorld(s.rt)
		if err != nil {
			return err
		}
		if s.cache, _, err = memcache.New(&memcache.Env{Reg: reg, LM: lm}, probeKeys); err != nil {
			return err
		}
		if s.th, err = s.rt.NewThread(); err != nil {
			return err
		}
		for i := 0; i < probeKeys; i++ {
			s.cache.Set(s.th, uint64(i+1), 0, uint64(i))
		}
		s.rng = rand.New(rand.NewSource(5)) // the same stream on every side
	}
	const chunk = 500
	ops := 0
	for ; ops < n; ops += chunk {
		for _, s := range sides {
			t0 := now()
			for i := 0; i < chunk; i++ {
				k := uint64(s.rng.Intn(probeKeys) + 1)
				if s.rng.Intn(2) == 0 {
					s.cache.Set(s.th, k, 0, uint64(i))
				} else {
					s.cache.Get(s.th, k, 0)
				}
			}
			s.ns += now() - t0
		}
	}
	per := func(i int) float64 { return float64(sides[i].ns) / float64(ops) }
	m["baselines.atlas_op_ns"] = per(1)
	m["baselines.justdo_op_ns"] = per(2)
	m["baselines.origin_op_ns"] = per(3)
	m["fase.ido_over_atlas"] = ratio(per(1), per(0)) // iDO ops/s over Atlas ops/s
	return nil
}

// probeDS times push/pop and enqueue/dequeue pairs under iDO and Atlas
// (Fig. 7's two contended structures, here uncontended), and Table I's
// Atlas side: kill a run whose logs were retained and time recovery.
func probeDS(m map[string]float64, n int) error {
	for _, rtName := range []string{"ido", "atlas"} {
		var rt persist.Runtime = core.New(core.DefaultConfig())
		if rtName == "atlas" {
			rt = atlas.New(atlas.Config{})
		}
		reg, lm, err := probeWorld(rt)
		if err != nil {
			return err
		}
		env := &ds.Env{Reg: reg, LM: lm}
		stack, _, err := ds.NewStack(env)
		if err != nil {
			return err
		}
		queue, _, err := ds.NewQueue(env)
		if err != nil {
			return err
		}
		th, err := rt.NewThread()
		if err != nil {
			return err
		}
		m["ds.stack_"+rtName+"_op_ns"] = loopNS(n/2, func(i int) { stack.Push(th, uint64(i)|1); stack.Pop(th) }) / 2
		m["ds.queue_"+rtName+"_op_ns"] = loopNS(n/2, func(i int) { queue.Enqueue(th, uint64(i)|1); queue.Dequeue(th) }) / 2
	}

	rt := atlas.New(atlas.Config{Retain: true})
	reg, lm, err := probeWorld(rt)
	if err != nil {
		return err
	}
	stack, _, err := ds.NewStack(&ds.Env{Reg: reg, LM: lm})
	if err != nil {
		return err
	}
	th, err := rt.NewThread()
	if err != nil {
		return err
	}
	for i := 0; i < n/2; i++ {
		stack.Push(th, uint64(i)|1)
		stack.Pop(th)
	}
	reg.Dev.ArmLocalCrash(100) // dies inside the next few FASEs
	if !diesOnCrash(func() {
		for i := 0; ; i++ {
			stack.Push(th, uint64(i)|1)
		}
	}) {
		return errors.New("atlas recovery probe: the crash never fired")
	}
	reg.Dev.ArmLocalCrash(-1)
	reg.Dev.Crash(nvm.CrashRandom, rand.New(rand.NewSource(9)))
	reg2, err := region.Attach(reg.Dev)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rt2 := atlas.New(atlas.Config{Retain: true})
	if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
		return err
	}
	if _, err := rt2.Recover(nil); err != nil {
		return fmt.Errorf("atlas recovery probe: %w", err)
	}
	m["baselines.atlas_recover_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	return nil
}

// diesOnCrash runs f and reports whether it ended in an injected crash.
func diesOnCrash(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// probeVM compiles the mini-IR kernels and runs irprog's stack through
// the VM: instrumented (iDO) against uninstrumented (origin) calls, and a
// crash inside a push followed by recovery by resumption.
func probeVM(m map[string]float64, n int) error {
	t0 := time.Now()
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		return err
	}
	m["compile.program_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	regions := 0
	for _, f := range prog.Funcs {
		regions += len(f.Regions)
	}
	m["compile.regions"] = float64(regions)

	for _, mode := range []vm.Mode{vm.ModeIDO, vm.ModeOrigin} {
		reg := region.Create(probeBytes, probeDevice())
		lm := locks.NewManager(reg)
		mach := vm.New(reg, lm, prog, mode)
		stk, err := irprog.NewStack(reg, lm)
		if err != nil {
			return err
		}
		th, err := mach.NewThread()
		if err != nil {
			return err
		}
		var callErr error
		ns := loopNS(n/2, func(i int) {
			if _, err := th.Call("stack_push", stk, uint64(i)); err != nil {
				callErr = err
			}
			if _, err := th.Call("stack_pop", stk); err != nil {
				callErr = err
			}
		}) / 2
		if callErr != nil {
			return fmt.Errorf("vm probe: %w", callErr)
		}
		m["vm."+mode.String()+"_call_ns"] = ns
		if mode != vm.ModeIDO {
			continue
		}
		mach.SetCrashBudget(6) // dies inside the push's FASE, after the lock
		if _, err := th.Call("stack_push", stk, 7); err == nil {
			return errors.New("vm probe: the crash never fired")
		}
		mach.SetCrashBudget(-1)
		reg.Dev.Crash(nvm.CrashRandom, rand.New(rand.NewSource(3)))
		reg2, err := region.Attach(reg.Dev)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := vm.New(reg2, locks.NewManager(reg2), prog, vm.ModeIDO).Recover(); err != nil {
			return fmt.Errorf("vm probe: recover: %w", err)
		}
		m["vm.recover_us"] = float64(time.Since(t1).Nanoseconds()) / 1e3
	}
	return nil
}

// probeSolo is the server with one connection and one request in flight:
// the request path's latency with no queueing anywhere, over the memcache
// protocol and over RESP.
func probeSolo(m map[string]float64, res *result, d time.Duration) error {
	for _, mix := range []struct {
		metric string
		setPct int
	}{{"server.solo_get_us", 0}, {"server.solo_set_us", 100}} {
		wl := &workload{name: "solo", server: true, setPct: mix.setPct, keys: 2 * probeKeys, prefill: 2 * probeKeys}
		node, err := newNode(probeBytes, shards, buckets, nil, false)
		if err != nil {
			return err
		}
		if err := node.prefill(wl); err != nil {
			return err
		}
		c := newClient(0, wl, 1, nil)
		c.window = make(chan struct{}, 1)
		srv, err := node.serve(wl, nil, []*client{c})
		if err != nil {
			return err
		}
		ph := runPhase([]*client{c}, phase{d: d, record: 1 << 20})
		srv.Close()
		res.attempted += ph.sent
		res.failed += ph.failed()
		if ph.firstErr != "" {
			res.fail("solo probe: %s", ph.firstErr)
		}
		m[mix.metric] = mergeDist(c.lat).quantile(0.5) / 1e3
	}
	return probeRESP(m, res, d)
}

// probeRESP drives the RESP front end over kv/redis with inline frames,
// one request at a time, checking every reply.
func probeRESP(m map[string]float64, res *result, d time.Duration) error {
	reg := region.Create(probeBytes, probeDevice())
	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		return err
	}
	store, err := server.NewRespStore(&redis.Env{Reg: reg}, shards, buckets)
	if err != nil {
		return err
	}
	srv, err := server.New(rt, store, server.Config{Proto: server.ProtoRESP}, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, sv := loadgen.MemPipe(pipeBytes)
	if err := srv.ServeConn(sv); err != nil {
		return err
	}
	defer cl.Close()
	br := bufio.NewReader(cl)
	var buf []byte
	call := func(set bool, key uint32, val uint64) (string, error) {
		buf = buf[:0]
		if set {
			buf = append(buf, "SET "...)
		} else {
			buf = append(buf, "GET "...)
		}
		buf = appendKey(buf, key)
		if set {
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, val, 10)
		}
		buf = append(buf, '\r', '\n')
		if _, err := cl.Write(buf); err != nil {
			return "", err
		}
		line, err := br.ReadString('\n')
		if err != nil || set || len(line) == 0 || line[0] != '$' || line == "$-1\r\n" {
			return line, err
		}
		return br.ReadString('\n') // the bulk string's payload
	}
	sets, gets := newLatRec(1<<20), newLatRec(1<<20)
	vals := make([]uint64, probeKeys)
	deadline := time.Now().Add(2 * d)
	for i := 0; time.Now().Before(deadline); i++ {
		key := uint32(i % probeKeys)
		t0 := now()
		if i%2 == 0 {
			vals[key] = uint64(i + 1)
			got, err := call(true, key, vals[key])
			sets.add(now() - t0)
			if err != nil && err != io.EOF {
				return fmt.Errorf("resp probe: %w", err)
			}
			if got != "+OK\r\n" {
				res.fail("resp probe: SET answered %q", got)
			}
		} else {
			key = uint32((i - 1) % probeKeys) // the key the previous SET wrote
			got, err := call(false, key, 0)
			gets.add(now() - t0)
			if err != nil && err != io.EOF {
				return fmt.Errorf("resp probe: %w", err)
			}
			if want := strconv.FormatUint(vals[key], 10) + "\r\n"; got != want {
				res.fail("resp probe: GET answered %q, want %q", got, want)
			}
		}
		res.attempted++
	}
	m["server.resp_solo_set_us"] = mergeDist(sets).quantile(0.5) / 1e3
	m["server.resp_solo_get_us"] = mergeDist(gets).quantile(0.5) / 1e3
	return nil
}

// runProbes runs every layer probe.
func runProbes(sc scale) (*result, error) {
	res := newResult()
	m := res.metrics
	probeNVM(m, sc.probeN)
	for _, p := range []func(map[string]float64, int) error{probeAlloc, probeStore, probeRedis, probeBaselines, probeDS, probeVM} {
		if err := p(m, sc.probeN); err != nil {
			return nil, err
		}
	}
	if err := probeSolo(m, res, sc.sat/8+50*time.Millisecond); err != nil {
		return nil, err
	}
	return res, nil
}

// fillLayers completes a traced run's layer budget. Its own phases gave
// the metrics of every layer the workload crosses; a layer it does not
// cross (the server on fase-direct, replication on all but
// kv-repl-write) is measured by a smoke-scale traced run of the workload
// that does, and the layers no traffic isolates by the probes. Each
// filled metric is marked with where it came from.
func fillLayers(o runOpts, res *result) error {
	var minis []string
	if !o.wl.server {
		minis = append(minis, "kv-write-mix")
	}
	if !o.wl.repl {
		minis = append(minis, "kv-repl-write")
	}
	for _, name := range minis {
		mini, err := runServer(runOpts{wl: findWorkload(name), seed: o.seed, sc: quickScale(), trace: true})
		if err != nil {
			return fmt.Errorf("mini %s: %w", name, err)
		}
		res.attempted += mini.attempted
		res.failed += mini.failed
		res.errs = append(res.errs, mini.errs...)
		res.fillFrom(mini, "mini "+name)
	}
	probes, err := runProbes(o.sc)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	res.attempted += probes.attempted
	res.failed += probes.failed
	res.errs = append(res.errs, probes.errs...)
	res.fillFrom(probes, "probe")
	return nil
}
