package server_test

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/server"
)

// TestServerCrashMidServe is the end-to-end crash smoke: kill the server
// while live connections have acknowledged and in-flight requests, then
// recover and hold the image to the three-way convergence argument (see
// loadgen.KeyHist): structural invariants intact, every tracked key's
// state explainable by its acked-or-later history prefix, and the store
// re-servable. Both protocol/runtime pairings take the same script.
func TestServerCrashMidServe(t *testing.T) {
	for _, proto := range []server.Proto{server.ProtoMemcache, server.ProtoRESP} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			runCrashMidServe(t, proto)
		})
	}
}

// TestServerCrashUnderFastReads is the fast-lane chaos schedule: a
// write-heavy stream keeps shards mutating while 16 read-only
// connections race the same keys through the lock-free fast lane, and
// the crash is a device-op *budget* rather than a timer — it fires ON
// a device access, which under this mix lands inside a mutating FASE's
// window: after the shard's store hit the device, before its even
// epoch bump. Readers racing that exact window must never have acked a
// torn value (every reader reply is parsed and validated before the
// crash), parked readers must unwind, and the image must recover and
// serve again. The budget is chosen to land mid-run; the test asserts
// it actually fired with acked traffic outstanding.
func TestServerCrashUnderFastReads(t *testing.T) {
	const shards = 4
	devcfg := nvm.Config{
		Size: 1 << 22,
	}
	reg := region.Create(1<<22, devcfg)
	reg.Dev.ArmLocalCrash(400_000)
	defer reg.Dev.ArmLocalCrash(-1)
	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatalf("attach: %v", err)
	}
	store, err := server.NewMcStore(&memcache.Env{Reg: reg, LM: lm}, shards, 64)
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	srv, err := server.New(rt, store, server.Config{Proto: server.ProtoMemcache}, nil)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	dialer := func() (net.Conn, error) {
		client, srvEnd := loadgen.MemPipe(64 << 10)
		if serr := srv.ServeConn(srvEnd); serr != nil {
			return nil, serr
		}
		return client, nil
	}

	// Writers mutate a small key set hard; readers are separate
	// connections with no writes in flight, so every get attempts the
	// fast lane against shards whose epochs are almost always churning.
	type out struct {
		res *loadgen.Result
		err error
	}
	wc, rc := make(chan out, 1), make(chan out, 1)
	go func() {
		res, lerr := loadgen.Run(loadgen.Config{
			Proto: loadgen.ProtoMemcache, Conns: 4, Pipeline: 4, Keys: 64,
			SetPct: 80, DelPct: 10, Duration: 30 * time.Second, Seed: 11, Track: true,
		}, dialer)
		wc <- out{res, lerr}
	}()
	go func() {
		res, lerr := loadgen.Run(loadgen.Config{
			Proto: loadgen.ProtoMemcache, Conns: 16, Pipeline: 4, Keys: 64,
			SetPct: 0, DelPct: 0, Duration: 30 * time.Second, Seed: 12,
		}, dialer)
		rc <- out{res, lerr}
	}()

	select {
	case <-srv.Crashed():
	case <-time.After(30 * time.Second):
		t.Fatalf("crash budget did not fire under load")
	}
	srv.Close()
	var wres, rres out
	select {
	case wres = <-wc:
	case <-time.After(30 * time.Second):
		t.Fatalf("writer loadgen did not unwind")
	}
	select {
	case rres = <-rc:
	case <-time.After(30 * time.Second):
		t.Fatalf("reader loadgen did not unwind (parked fast reader leaked?)")
	}
	if wres.err != nil || rres.err != nil {
		t.Fatalf("loadgen: writers=%v readers=%v", wres.err, rres.err)
	}
	if !reg.Dev.LocalCrashFired() {
		t.Fatalf("injected crash did not fire")
	}
	// Every reply either side acked before the crash parsed cleanly
	// (loadgen counts malformed replies as errors).
	if wres.res.Errs != 0 || rres.res.Errs != 0 {
		t.Fatalf("malformed replies before crash: writers=%d readers=%d",
			wres.res.Errs, rres.res.Errs)
	}
	if rres.res.Ops == 0 {
		t.Fatalf("no reader traffic acked before the crash; schedule proves nothing")
	}
	t.Logf("crash after %d writer + %d reader acked ops (%d hits)",
		wres.res.Ops, rres.res.Ops, rres.res.Hits)

	// Recover as a restarted process and hold the image to the same
	// structural and history invariants as the mid-serve smoke.
	reg.Dev.ArmLocalCrash(-1)
	rng := rand.New(rand.NewSource(3))
	reg2, err := reg.Crash(nvm.CrashRandom, rng)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	lm2 := locks.NewManager(reg2)
	rt2 := core.New(core.DefaultConfig())
	if err := rt2.Attach(reg2, lm2); err != nil {
		t.Fatalf("attach2: %v", err)
	}
	rr := persist.NewResumeRegistry()
	store2, err := server.AttachMcStore(&memcache.Env{Reg: reg2, LM: lm2})
	if err != nil {
		t.Fatalf("attach store: %v", err)
	}
	store2.Register(rr)
	if _, err := rt2.Recover(rr); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i, tbl := range store2.Tables() {
		if err := memcache.CheckCacheImage(reg2.Dev, tbl); err != nil {
			t.Fatalf("shard %d image: %v", i, err)
		}
		if err := memcache.CheckCacheLockFree(reg2.Dev, lm2, tbl); err != nil {
			t.Fatalf("shard %d lock: %v", i, err)
		}
	}
	th, err := rt2.NewThread()
	if err != nil {
		t.Fatalf("verify thread: %v", err)
	}
	checked := 0
	for k, h := range wres.res.Tracked {
		if len(h.Ops) == 0 {
			continue
		}
		kb := loadgen.AppendKey(nil, k)
		k0, k1, okk := server.McKeyWords(kb)
		if !okk {
			t.Fatalf("generated key %q is not storable", kb)
		}
		shard := store2.ShardOf(k0, k1)
		val, present := store2.Get(th, shard, k0, k1)
		if !h.Explainable(present, val) {
			t.Fatalf("key %q (present=%v val=%d) unexplainable: acked=%d ops=%+v",
				kb, present, val, h.Acked, h.Ops)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no tracked keys to verify")
	}

	// Fast reads must work against the recovered image too.
	srv2, err := server.New(rt2, store2, server.Config{Proto: server.ProtoMemcache}, nil)
	if err != nil {
		t.Fatalf("re-serve: %v", err)
	}
	defer srv2.Close()
	res2, err := loadgen.Run(loadgen.Config{
		Proto: loadgen.ProtoMemcache, Conns: 2, Pipeline: 4, Keys: 64,
		SetPct: 0, DelPct: 0, Ops: 200, Seed: 13,
	}, dialer2(srv2))
	if err != nil {
		t.Fatalf("post-recovery loadgen: %v", err)
	}
	if res2.Errs != 0 || res2.Ops != 400 {
		t.Fatalf("post-recovery reads: %d ops, %d errors", res2.Ops, res2.Errs)
	}
	t.Logf("%d keys verified, %d post-recovery reads clean", checked, res2.Ops)
}

func dialer2(srv *server.Server) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		client, srvEnd := loadgen.MemPipe(64 << 10)
		if serr := srv.ServeConn(srvEnd); serr != nil {
			return nil, serr
		}
		return client, nil
	}
}

func runCrashMidServe(t *testing.T, proto server.Proto) {
	const shards = 4
	devcfg := nvm.Config{
		Size: 1 << 22,
	}
	// Arm before anything else runs so every lock waiter takes the
	// crash-aware spin path; the budget is far beyond reach, the actual
	// kill is the timed TriggerLocalCrash below.
	reg := region.Create(1<<22, devcfg)
	reg.Dev.ArmLocalCrash(1 << 60)
	defer reg.Dev.ArmLocalCrash(-1)
	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatalf("attach: %v", err)
	}
	var store server.Store
	var err error
	if proto == server.ProtoMemcache {
		store, err = server.NewMcStore(&memcache.Env{Reg: reg, LM: lm}, shards, 64)
	} else {
		store, err = server.NewRespStore(&redis.Env{Reg: reg}, shards, 64)
	}
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	srv, err := server.New(rt, store, server.Config{Proto: proto}, nil)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}

	lp := loadgen.ProtoMemcache
	if proto == server.ProtoRESP {
		lp = loadgen.ProtoRESP
	}
	lcfg := loadgen.Config{
		Proto:    lp,
		Conns:    8,
		Pipeline: 4,
		Keys:     512,
		SetPct:   40,
		DelPct:   20,
		Duration: 30 * time.Second, // ended early by the crash
		Seed:     42,
		Track:    true,
	}
	resc := make(chan *loadgen.Result, 1)
	go func() {
		res, lerr := loadgen.Run(lcfg, func() (net.Conn, error) {
			client, srvEnd := loadgen.MemPipe(64 << 10)
			if serr := srv.ServeConn(srvEnd); serr != nil {
				return nil, serr
			}
			return client, nil
		})
		if lerr != nil {
			t.Errorf("loadgen: %v", lerr)
		}
		resc <- res
	}()

	// Let the mix run, then pull the plug mid-flight.
	time.Sleep(150 * time.Millisecond)
	reg.Dev.TriggerLocalCrash()
	select {
	case <-srv.Crashed():
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not observe the injected crash")
	}
	srv.Close()
	var res *loadgen.Result
	select {
	case res = <-resc:
	case <-time.After(30 * time.Second):
		t.Fatalf("load generator did not unwind after the crash")
	}
	if res == nil {
		t.Fatalf("no loadgen result")
	}
	if res.Ops == 0 {
		t.Fatalf("crash fired before any request was acknowledged; smoke proves nothing")
	}
	if !reg.Dev.LocalCrashFired() {
		t.Fatalf("injected crash did not fire")
	}
	t.Logf("%s: %d acked ops, %d tracked keys at crash", proto, res.Ops, len(res.Tracked))

	// Settle the persistence domain and recover, as a restarted process.
	reg.Dev.ArmLocalCrash(-1)
	rng := rand.New(rand.NewSource(7))
	reg2, err := reg.Crash(nvm.CrashRandom, rng)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	lm2 := locks.NewManager(reg2)
	rt2 := core.New(core.DefaultConfig())
	if err := rt2.Attach(reg2, lm2); err != nil {
		t.Fatalf("attach2: %v", err)
	}
	var store2 server.Store
	rr := persist.NewResumeRegistry()
	if proto == server.ProtoMemcache {
		env2 := &memcache.Env{Reg: reg2, LM: lm2}
		store2, err = server.AttachMcStore(env2)
		if err != nil {
			t.Fatalf("attach store: %v", err)
		}
		store2.Register(rr)
	} else {
		env2 := &redis.Env{Reg: reg2}
		store2, err = server.AttachRespStore(env2)
		if err != nil {
			t.Fatalf("attach store: %v", err)
		}
		store2.Register(rr)
	}
	if _, err := rt2.Recover(rr); err != nil {
		t.Fatalf("recover: %v", err)
	}

	// Structural invariants over every recovered shard image.
	if mc, ok := store2.(*server.McStore); ok {
		for i, tbl := range mc.Tables() {
			if err := memcache.CheckCacheImage(reg2.Dev, tbl); err != nil {
				t.Fatalf("shard %d image: %v", i, err)
			}
			if err := memcache.CheckCacheLockFree(reg2.Dev, lm2, tbl); err != nil {
				t.Fatalf("shard %d lock: %v", i, err)
			}
		}
	} else {
		for i, tbl := range store2.(*server.RespStore).Tables() {
			if err := redis.CheckRedisImage(reg2.Dev, tbl); err != nil {
				t.Fatalf("shard %d image: %v", i, err)
			}
		}
	}

	// Every tracked key's recovered state must be explainable by an
	// acked-or-later prefix of its mutation history.
	th, err := rt2.NewThread()
	if err != nil {
		t.Fatalf("verify thread: %v", err)
	}
	checked := 0
	for k, h := range res.Tracked {
		if len(h.Ops) == 0 {
			continue
		}
		kb := loadgen.AppendKey(nil, k)
		var k0, k1 uint64
		var okk bool
		if proto == server.ProtoMemcache {
			k0, k1, okk = server.McKeyWords(kb)
		} else {
			k0, okk = server.RespKeyWords(kb)
		}
		if !okk {
			t.Fatalf("generated key %q is not storable", kb)
		}
		shard := store2.ShardOf(k0, k1)
		val, present := store2.Get(th, shard, k0, k1)
		if !h.Explainable(present, val) {
			t.Fatalf("key %q (present=%v val=%d) unexplainable: acked=%d ops=%+v",
				kb, present, val, h.Acked, h.Ops)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no tracked keys to verify")
	}
	t.Logf("%s: %d keys verified against histories", proto, checked)

	// The recovered store must serve again.
	srv2, err := server.New(rt2, store2, server.Config{Proto: proto}, nil)
	if err != nil {
		t.Fatalf("re-serve: %v", err)
	}
	defer srv2.Close()
	res2, err := loadgen.Run(loadgen.Config{
		Proto: lp, Conns: 2, Pipeline: 4, Keys: 512,
		SetPct: 40, DelPct: 20, Ops: 200, Seed: 43,
	}, func() (net.Conn, error) {
		client, srvEnd := loadgen.MemPipe(64 << 10)
		if serr := srv2.ServeConn(srvEnd); serr != nil {
			return nil, serr
		}
		return client, nil
	})
	if err != nil {
		t.Fatalf("post-recovery loadgen: %v", err)
	}
	if res2.Errs != 0 || res2.Ops != 400 {
		t.Fatalf("post-recovery serve: %d ops, %d errors", res2.Ops, res2.Errs)
	}
}
