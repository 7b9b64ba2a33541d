package server_test

import (
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/replica"
	"github.com/ido-nvm/ido/internal/server"
)

// replWorld is one machine of a replicated pair: its own device, region,
// runtime, and store.
type replWorld struct {
	reg   *region.Region
	lm    *locks.Manager
	rt    persist.Runtime
	store *server.McStore
}

func newReplWorld(t *testing.T, shards int) *replWorld {
	t.Helper()
	w := &replWorld{}
	w.reg = region.Create(1<<22, nvm.Config{
		Size: 1 << 22,
	})
	w.lm = locks.NewManager(w.reg)
	w.rt = core.New(core.DefaultConfig())
	if err := w.rt.Attach(w.reg, w.lm); err != nil {
		t.Fatalf("attach: %v", err)
	}
	var err error
	w.store, err = server.NewMcStore(&memcache.Env{Reg: w.reg, LM: w.lm}, shards, 64)
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	return w
}

// shipperDial returns the standby-side dial function: a MemPipe to the
// shipper, failing fast once the primary is dead (a TCP dial would get
// connection-refused).
func shipperDial(sh *replica.Shipper) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		if sh.Killed() {
			return nil, errors.New("primary down")
		}
		c, s := loadgen.MemPipe(1 << 16)
		go func() {
			if err := sh.AttachConn(s); err != nil {
				s.Close()
			}
		}()
		return c, nil
	}
}

// TestFailoverPrimaryCrashMidLoad is the headline availability test:
// a primary with an attached hot standby dies on an injected device
// crash (a budget, so it fires inside a mutating FASE) while
// fault-tolerant clients drive a tracked mixed load. The clients must
// ride the loss onto the promoted standby, and — the durability
// contract — every write acked to a client before the crash must be
// explainable on the standby's image: acked implies receipt-acked
// implies applied by the promotion drain.
func TestFailoverPrimaryCrashMidLoad(t *testing.T) {
	const shards = 4

	primary := newReplWorld(t, shards)
	standby := newReplWorld(t, shards)

	sh, err := replica.NewShipper(replica.ShipperConfig{
		Shards:    shards,
		Heartbeat: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvP, err := server.New(primary.rt, primary.store, server.Config{
		Proto: server.ProtoMemcache,
		Repl:  sh,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	sb, err := replica.NewStandby(replica.StandbyConfig{
		Store:            standby.store,
		RT:               standby.rt,
		Reg:              standby.reg,
		HeartbeatTimeout: 200 * time.Millisecond,
		ReconnectBudget:  3,
		ReconnectBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sbDone := make(chan error, 1)
	go func() { sbDone <- sb.Run(shipperDial(sh)) }()
	deadline := time.Now().Add(10 * time.Second)
	for !sh.Attached() {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
		time.Sleep(time.Millisecond)
	}

	// Promotion pipeline: when the standby promotes, stand a server up
	// over its store and publish it to the client dial path.
	var promoted atomic.Pointer[server.Server]
	promErr := make(chan error, 1)
	go func() {
		if err := <-sbDone; err != nil {
			promErr <- err
			return
		}
		srvS, err := server.New(standby.rt, standby.store, server.Config{Proto: server.ProtoMemcache}, nil)
		if err != nil {
			promErr <- err
			return
		}
		promoted.Store(srvS)
		promErr <- nil
	}()

	primaryDial := func() (net.Conn, error) {
		client, srvEnd := loadgen.MemPipe(64 << 10)
		if serr := srvP.ServeConn(srvEnd); serr != nil {
			client.Close()
			return nil, serr
		}
		return client, nil
	}
	standbyDial := func() (net.Conn, error) {
		srvS := promoted.Load()
		if srvS == nil {
			return nil, errors.New("standby not serving yet")
		}
		client, srvEnd := loadgen.MemPipe(64 << 10)
		if serr := srvS.ServeConn(srvEnd); serr != nil {
			client.Close()
			return nil, serr
		}
		return client, nil
	}

	// Arm a device-local crash budget on the primary only: it burns on
	// primary device events and fires mid-FASE; the standby's device
	// (and its apply FASEs) keep running.
	primary.reg.Dev.ArmLocalCrash(250_000)
	defer primary.reg.Dev.ArmLocalCrash(-1)

	res, err := loadgen.RunFT(loadgen.Config{
		Proto: loadgen.ProtoMemcache, Conns: 4, Pipeline: 4, Keys: 256,
		SetPct: 40, DelPct: 20, Duration: 15 * time.Second, Seed: 21, Track: true,
		OpTimeout:        2 * time.Second,
		ReconnectBackoff: 2 * time.Millisecond,
		MaxDialTries:     10_000,
	}, []func() (net.Conn, error){primaryDial, standbyDial})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}

	select {
	case <-srvP.Crashed():
	default:
		t.Fatal("primary crash budget did not fire during the load")
	}
	if !primary.reg.Dev.LocalCrashFired() {
		t.Fatal("local crash not fired on primary device")
	}
	if standby.reg.Dev.LocalCrashFired() {
		t.Fatal("standby device caught the primary's crash")
	}
	// The semi-sync contract must have held while the primary served: a
	// degraded (detached) window would have released acks without
	// standby receipt, voiding the zero-acked-loss check below.
	// Snapshot before Close — Close releases the tokens orphaned by the
	// kill, and those count as degraded completions of a dead server,
	// not acks any client received.
	var shStats metrics.ReplStats
	sh.ReplSnapshot(&shStats)
	if shStats.Degraded > 0 {
		t.Fatalf("shipper degraded %d completions mid-run; semi-sync window was broken", shStats.Degraded)
	}
	srvP.Close()
	if err := <-promErr; err != nil {
		t.Fatalf("promotion: %v", err)
	}
	srvS := promoted.Load()
	defer srvS.Close()

	if res.Errs != 0 {
		t.Fatalf("clients saw %d error replies", res.Errs)
	}
	if res.Failovers == 0 {
		t.Fatalf("no failovers recorded (reconnects=%d retries=%d) — clients never moved to the standby", res.Reconnects, res.Retries)
	}
	var sbStats metrics.ReplStats
	sb.ReplSnapshot(&sbStats)
	if sbStats.Failovers != 1 {
		t.Fatalf("standby promotions = %d, want 1", sbStats.Failovers)
	}
	t.Logf("load: %d ops, %d reconnects, %d failovers, %d lost in flight; standby applied %d",
		res.Ops, res.Reconnects, res.Failovers, res.TimedOut, sbStats.Records)

	// Zero acked-write loss: every tracked key's state on the promoted
	// standby must be explainable by an acked-or-later prefix of its
	// history. The standby never crashed, so no recovery pass is needed
	// — the promotion drain already made receipt == applied.
	th, err := standby.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for k, h := range res.Tracked {
		if len(h.Ops) == 0 {
			continue
		}
		kb := loadgen.AppendKey(nil, k)
		k0, k1, okk := server.McKeyWords(kb)
		if !okk {
			t.Fatalf("generated key %q is not storable", kb)
		}
		shard := standby.store.ShardOf(k0, k1)
		val, present := standby.store.Get(th, shard, k0, k1)
		if !h.Explainable(present, val) {
			t.Fatalf("key %q (present=%v val=%d) unexplainable on standby: acked=%d ops=%+v",
				kb, present, val, h.Acked, h.Ops)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no tracked keys to verify")
	}

	// The standby's image is structurally sound and re-serves reads
	// error-free.
	for i, tbl := range standby.store.Tables() {
		if err := memcache.CheckCacheImage(standby.reg.Dev, tbl); err != nil {
			t.Fatalf("standby shard %d image: %v", i, err)
		}
	}
	res2, err := loadgen.Run(loadgen.Config{
		Proto: loadgen.ProtoMemcache, Conns: 2, Pipeline: 4, Keys: 256,
		SetPct: 0, DelPct: 0, Ops: 200, Seed: 22,
	}, standbyDial)
	if err != nil {
		t.Fatalf("post-failover loadgen: %v", err)
	}
	if res2.Errs != 0 || res2.Ops != 400 {
		t.Fatalf("post-failover reads: %d ops, %d errors", res2.Ops, res2.Errs)
	}
	t.Logf("%d keys verified on the promoted standby, %d post-failover reads clean", checked, res2.Ops)
}

// TestStandbyCrashMidApplyReplays crashes the standby inside an apply
// FASE, reboots its device through the standard crash-recover ritual,
// and reattaches: replay from the durable watermark must re-apply the
// unpersisted suffix idempotently and converge with the primary's
// history.
func TestStandbyCrashMidApplyReplays(t *testing.T) {
	const (
		shards = 2
		nkeys  = 64
		nrecs  = 600
	)

	standby := newReplWorld(t, shards)
	sh, err := replica.NewShipper(replica.ShipperConfig{
		Shards:    shards,
		Heartbeat: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var completions atomic.Uint64
	sh.SetComplete(func(any) { completions.Add(1) })

	sb, err := replica.NewStandby(replica.StandbyConfig{
		Store:            standby.store,
		RT:               standby.rt,
		Reg:              standby.reg,
		HeartbeatTimeout: 200 * time.Millisecond,
		ReconnectBackoff: 2 * time.Millisecond,
		WatermarkEvery:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	sbDone := make(chan error, 1)
	go func() { sbDone <- sb.Run(shipperDial(sh)) }()

	// The publish plan: interleaved sets and deletes over a small key
	// space; the expected final state is computed alongside.
	type kw struct{ k0, k1 uint64 }
	keyWords := make([]kw, nkeys)
	for i := range keyWords {
		kb := loadgen.AppendKey(nil, uint64(i))
		k0, k1, ok := server.McKeyWords(kb)
		if !ok {
			t.Fatalf("key %q not storable", kb)
		}
		keyWords[i] = kw{k0, k1}
	}
	want := map[kw]uint64{}
	rng := rand.New(rand.NewSource(77))

	// Arm the standby's device mid-stream: apply FASEs burn the budget
	// and die inside one. Arm after attach so the handshake survives.
	deadline := time.Now().Add(10 * time.Second)
	for !sh.Attached() {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
		time.Sleep(time.Millisecond)
	}
	standby.reg.Dev.ArmLocalCrash(20_000)
	defer standby.reg.Dev.ArmLocalCrash(-1)

	for i := 0; i < nrecs; i++ {
		k := keyWords[rng.Intn(nkeys)]
		shard := standby.store.ShardOf(k.k0, k.k1)
		if rng.Intn(5) == 0 {
			sh.Publish(shard, replica.OpDel, k.k0, k.k1, 0, i)
			delete(want, k)
		} else {
			v := uint64(10_000 + i)
			sh.Publish(shard, replica.OpSet, k.k0, k.k1, v, i)
			want[k] = v
		}
	}

	select {
	case err := <-sbDone:
		if !errors.Is(err, replica.ErrStandbyCrashed) {
			t.Fatalf("standby Run returned %v, want ErrStandbyCrashed", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("standby crash budget did not fire mid-apply")
	}

	// Reboot the standby machine: crash-recover the region, reattach
	// the store, resume interrupted FASEs — the ritual every restarted
	// process runs — then rebuild the standby over the recovered store.
	reg2, err := standby.reg.Crash(nvm.CrashRandom, rand.New(rand.NewSource(5)))
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
			t.Fatalf("recovered shard %d image: %v", i, err)
		}
	}

	sb2, err := replica.NewStandby(replica.StandbyConfig{
		Store:            store2,
		RT:               rt2,
		Reg:              reg2,
		HeartbeatTimeout: 200 * time.Millisecond,
		ReconnectBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewStandby after reboot: %v", err)
	}
	sb2Done := make(chan error, 1)
	go func() { sb2Done <- sb2.Run(shipperDial(sh)) }()

	// Convergence: the shipper resends everything above the standby's
	// durable watermark; when the durable ack catches the full history,
	// the replay is complete.
	deadline = time.Now().Add(20 * time.Second)
	for {
		var s metrics.ReplStats
		sh.ReplSnapshot(&s)
		if s.Attached == 1 && s.LagRecs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay did not converge: lag %d records", s.LagRecs)
		}
		time.Sleep(time.Millisecond)
	}

	th, err := rt2.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keyWords {
		shard := store2.ShardOf(k.k0, k.k1)
		val, present := store2.Get(th, shard, k.k0, k.k1)
		wantVal, wantPresent := want[k]
		if present != wantPresent || (present && val != wantVal) {
			t.Fatalf("key %d after replay: got (%d,%v), want (%d,%v)",
				i, val, present, wantVal, wantPresent)
		}
	}

	var s2 metrics.ReplStats
	sb2.ReplSnapshot(&s2)
	t.Logf("replayed: %d applied, %d duplicate-skipped after standby reboot", s2.Records, s2.Degraded)

	sb2.Stop()
	<-sb2Done
	sh.Close()
}
