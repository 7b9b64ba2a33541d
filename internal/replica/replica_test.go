package replica

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// ---- wire ----

func TestWireRoundtrip(t *testing.T) {
	r := rec{shard: 3, seq: 0xDEADBEEF01, op: recDel, k0: 1, k1: ^uint64(0), val: 42}
	b := appendRecord(nil, r)
	if len(b) != 1+recordSize {
		t.Fatalf("record frame is %d bytes, want %d", len(b), 1+recordSize)
	}
	if b[0] != frameRecord {
		t.Fatalf("record frame type %#x", b[0])
	}
	if got := decodeRecord(b[1:]); got != r {
		t.Fatalf("record roundtrip: got %+v, want %+v", got, r)
	}

	b = appendAck(nil, 7, 100, 90)
	if len(b) != 1+ackSize || b[0] != frameAck {
		t.Fatalf("ack frame %d bytes type %#x", len(b), b[0])
	}
	if sh, recv, dur := decodeAck(b[1:]); sh != 7 || recv != 100 || dur != 90 {
		t.Fatalf("ack roundtrip: %d %d %d", sh, recv, dur)
	}

	var buf bytes.Buffer
	wm := []uint64{5, 0, 12}
	if err := writeHello(&buf, wm); err != nil {
		t.Fatalf("writeHello: %v", err)
	}
	got, err := readHello(&buf, 3)
	if err != nil {
		t.Fatalf("readHello: %v", err)
	}
	for i := range wm {
		if got[i] != wm[i] {
			t.Fatalf("hello watermark %d: got %d, want %d", i, got[i], wm[i])
		}
	}
}

func TestHelloRejectsMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(&buf, 3); err == nil {
		t.Fatal("hello with 2 shards accepted by a 3-shard primary")
	}
	// Corrupt the magic.
	buf.Reset()
	writeHello(&buf, []uint64{1})
	raw := buf.Bytes()
	raw[1] ^= 0xFF
	if _, err := readHello(bytes.NewReader(raw), 1); err == nil {
		t.Fatal("corrupted hello magic accepted")
	}
}

// ---- fake store ----

// fakeStore is an Applier applying into plain maps: the FASE machinery
// still runs (Exec wraps every apply), but the state under test is the
// replication protocol, not the KV store.
type fakeStore struct {
	mu sync.Mutex
	m  []map[[2]uint64]uint64
}

func newFakeStore(shards int) *fakeStore {
	f := &fakeStore{m: make([]map[[2]uint64]uint64, shards)}
	for i := range f.m {
		f.m[i] = map[[2]uint64]uint64{}
	}
	return f
}

func (f *fakeStore) NumShards() int { return len(f.m) }

func (f *fakeStore) Set(_ persist.Thread, shard int, k0, k1, val uint64) {
	f.mu.Lock()
	f.m[shard][[2]uint64{k0, k1}] = val
	f.mu.Unlock()
}

func (f *fakeStore) Del(_ persist.Thread, shard int, k0, k1 uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [2]uint64{k0, k1}
	_, ok := f.m[shard][k]
	delete(f.m[shard], k)
	return ok
}

func (f *fakeStore) get(shard int, k0, k1 uint64) (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[shard][[2]uint64{k0, k1}]
	return v, ok
}

// standbyWorld is a full standby stack over its own device.
type standbyWorld struct {
	reg   *region.Region
	rt    persist.Runtime
	store *fakeStore
	sb    *Standby
}

func newStandbyWorld(t *testing.T, shards int, mut func(*StandbyConfig)) *standbyWorld {
	t.Helper()
	w := &standbyWorld{}
	w.reg = region.Create(1<<22, nvm.Config{Size: 1 << 22})
	lm := locks.NewManager(w.reg)
	w.rt = core.New(core.DefaultConfig())
	if err := w.rt.Attach(w.reg, lm); err != nil {
		t.Fatalf("attach: %v", err)
	}
	w.store = newFakeStore(shards)
	cfg := StandbyConfig{
		Store:            w.store,
		RT:               w.rt,
		Reg:              w.reg,
		HeartbeatTimeout: 250 * time.Millisecond,
		ReconnectBudget:  3,
		ReconnectBackoff: 2 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	var err error
	w.sb, err = NewStandby(cfg)
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	return w
}

// dialer returns a dial function connecting to sh over a MemPipe; it
// fails fast once the shipper is killed, the way a TCP dial to a dead
// primary gets connection-refused.
func dialer(sh *Shipper) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		if sh.Killed() {
			return nil, fmt.Errorf("primary down")
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

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- ship / apply / ack ----

func TestShipApplyAckTrim(t *testing.T) {
	const shards = 2
	sh, err := NewShipper(ShipperConfig{Shards: shards, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var completions atomic.Uint64
	sh.SetComplete(func(any) { completions.Add(1) })

	w := newStandbyWorld(t, shards, nil)
	runDone := make(chan error, 1)
	go func() { runDone <- w.sb.Run(dialer(sh)) }()
	waitFor(t, "stream", func() bool { return sh.Attached() })

	const n = 100
	for i := 0; i < n; i++ {
		shard := i % shards
		if i%10 == 9 {
			sh.Publish(shard, OpDel, uint64(i/10), 0, 0, i)
		} else {
			sh.Publish(shard, OpSet, uint64(i), 1, uint64(1000+i), i)
		}
	}
	waitFor(t, "completions", func() bool { return completions.Load() == n })
	waitFor(t, "durable acks trim the rings", func() bool {
		var st, dummy int
		_ = dummy
		for i := range sh.shards {
			s := &sh.shards[i]
			s.mu.Lock()
			st += len(s.recs)
			s.mu.Unlock()
		}
		return st == 0
	})
	// Applied state: sets present except the deleted keys.
	for i := 0; i < n; i++ {
		shard := i % shards
		if i%10 == 9 {
			continue
		}
		v, ok := w.store.get(shard, uint64(i), 1)
		deleted := i < n/10*10 && i%10 == 9
		if deleted {
			continue
		}
		if !ok || v != uint64(1000+i) {
			t.Fatalf("shard %d key %d: got (%d,%v), want (%d,true)", shard, i, v, ok, 1000+i)
		}
	}
	if got := sh.pendingToks(); got != 0 {
		t.Fatalf("pendingToks = %d after full ack", got)
	}

	w.sb.Stop()
	if err := <-runDone; err != ErrStandbyStopped {
		t.Fatalf("Run returned %v, want ErrStandbyStopped", err)
	}
	sh.Close()
}

// TestDegradedThenCatchUp: publishing with no standby completes inline
// (degraded) but buffers history; a standby attaching later backfills.
func TestDegradedThenCatchUp(t *testing.T) {
	sh, err := NewShipper(ShipperConfig{Shards: 1, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var completions atomic.Uint64
	sh.SetComplete(func(any) { completions.Add(1) })

	for i := 0; i < 10; i++ {
		sh.Publish(0, OpSet, uint64(i), 0, uint64(100+i), i)
	}
	if completions.Load() != 10 {
		t.Fatalf("degraded publishes completed %d/10 inline", completions.Load())
	}
	var snap metrics.ReplStats
	sh.ReplSnapshot(&snap)
	if snap.Degraded != 10 {
		t.Fatalf("degraded counter = %d, want 10", snap.Degraded)
	}

	w := newStandbyWorld(t, 1, nil)
	runDone := make(chan error, 1)
	go func() { runDone <- w.sb.Run(dialer(sh)) }()
	waitFor(t, "backfill", func() bool {
		v, ok := w.store.get(0, 9, 0)
		return ok && v == 109
	})
	// New publishes ride the live stream with deferred completion.
	sh.Publish(0, OpSet, 99, 0, 999, 99)
	waitFor(t, "live completion", func() bool { return completions.Load() == 11 })
	waitFor(t, "live apply", func() bool {
		v, ok := w.store.get(0, 99, 0)
		return ok && v == 999
	})

	w.sb.Stop()
	<-runDone
	sh.Close()
}

// TestPromotionOnPrimaryDeath: a streaming standby whose primary dies
// exhausts its reconnect budget, drains, persists watermarks, and
// promotes.
func TestPromotionOnPrimaryDeath(t *testing.T) {
	sh, err := NewShipper(ShipperConfig{Shards: 1, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sh.SetComplete(func(any) {})

	w := newStandbyWorld(t, 1, nil)
	runDone := make(chan error, 1)
	go func() { runDone <- w.sb.Run(dialer(sh)) }()
	waitFor(t, "stream", func() bool { return sh.Attached() })
	for i := 0; i < 20; i++ {
		sh.Publish(0, OpSet, uint64(i), 0, uint64(i), i)
	}
	waitFor(t, "apply", func() bool {
		v, ok := w.store.get(0, 19, 0)
		return ok && v == 19
	})

	sh.Kill() // primary process death: no completions, stream severed

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v, want nil (promotion)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("standby did not promote")
	}
	select {
	case <-w.sb.Promoted():
	default:
		t.Fatal("Promoted channel not closed")
	}
	if got := w.sb.State(); got != StatePromoted {
		t.Fatalf("state = %d, want StatePromoted", got)
	}
	// The watermark table is durable: a rebuilt standby resumes at 20.
	sb2, err := NewStandby(StandbyConfig{Store: w.store, RT: w.rt, Reg: w.reg})
	if err != nil {
		t.Fatalf("NewStandby reopen: %v", err)
	}
	if got := sb2.durSeq[0].Load(); got != 20 {
		t.Fatalf("reopened watermark = %d, want 20", got)
	}
}

// TestStandbyNeverPromotesBeforeStreaming: a standby that has never
// reached its primary must keep retrying, not promote an empty store.
func TestStandbyNeverPromotesBeforeStreaming(t *testing.T) {
	w := newStandbyWorld(t, 1, func(c *StandbyConfig) {
		c.ReconnectBudget = 1
		c.ReconnectBackoff = time.Millisecond
	})
	runDone := make(chan error, 1)
	go func() {
		runDone <- w.sb.Run(func() (net.Conn, error) {
			return nil, fmt.Errorf("nothing listening")
		})
	}()
	select {
	case err := <-runDone:
		t.Fatalf("standby promoted/exited (%v) without ever streaming", err)
	case <-time.After(300 * time.Millisecond):
	}
	w.sb.Stop()
	if err := <-runDone; err != ErrStandbyStopped {
		t.Fatalf("Run returned %v, want ErrStandbyStopped", err)
	}
}

// TestApplySkipsDuplicates drives the apply loop directly with a
// redelivered record — the reconnect-replay case — and checks exactly
// one application.
func TestApplySkipsDuplicates(t *testing.T) {
	w := newStandbyWorld(t, 1, nil)
	applyErr := make(chan error, 1)
	go w.sb.applyLoop(applyErr)
	r := rec{shard: 0, seq: 1, op: recSet, k0: 7, k1: 0, val: 70}
	w.sb.queue <- r
	w.sb.queue <- r // redelivery
	w.sb.queue <- rec{shard: 0, seq: 2, op: recSet, k0: 7, k1: 0, val: 71}
	waitFor(t, "applies", func() bool { return w.sb.applied.Load() == 2 })
	if got := w.sb.skipped.Load(); got != 1 {
		t.Fatalf("skipped = %d, want 1", got)
	}
	if v, ok := w.store.get(0, 7, 0); !ok || v != 71 {
		t.Fatalf("state after dup replay: (%d,%v), want (71,true)", v, ok)
	}
	w.sb.Stop()
	if err := <-applyErr; err != nil {
		t.Fatalf("applyLoop exit: %v", err)
	}
	// The drain path persisted watermarks durably.
	if got := w.sb.durSeq[0].Load(); got != 2 {
		t.Fatalf("durable watermark = %d, want 2", got)
	}
}

// TestAttachRejectsStaleStandby: a standby whose watermark is below the
// shipper's buffered history base needs a full resync and is refused.
func TestAttachRejectsStaleStandby(t *testing.T) {
	sh, err := NewShipper(ShipperConfig{Shards: 1, Buffer: 4, Heartbeat: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sh.SetComplete(func(any) {})
	// Overflow while detached: history below the ring is lost.
	for i := 0; i < 10; i++ {
		sh.Publish(0, OpSet, uint64(i), 0, uint64(i), nil)
	}
	c, s := loadgen.MemPipe(1 << 14)
	go writeHello(c, []uint64{0}) // claims nothing applied — below the lost base
	if err := sh.AttachConn(s); err == nil {
		t.Fatal("stale standby accepted after history loss")
	}
	c.Close()
	s.Close()
}

// TestReplicationStreamZeroAllocs gates the steady-state replication
// path — publish → ship → standby apply → ack → complete, over a MemPipe
// — at zero heap allocations per record. The Go collector rarely runs
// beside hundreds of MiB of device slices, so garbage per shipped record
// is resident memory that grows with every completed write.
func TestReplicationStreamZeroAllocs(t *testing.T) {
	const shards = 2
	sh, err := NewShipper(ShipperConfig{Shards: shards, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var completions atomic.Uint64
	sh.SetComplete(func(any) { completions.Add(1) })
	w := newStandbyWorld(t, shards, nil)
	runDone := make(chan error, 1)
	go func() { runDone <- w.sb.Run(dialer(sh)) }()
	waitFor(t, "stream", func() bool { return sh.Attached() })

	const batch = 64
	toks := make([]any, batch) // boxed once: Publish takes the token as an interface
	for i := range toks {
		toks[i] = &toks[i]
	}
	var want uint64
	round := func() {
		for i := 0; i < batch; i++ {
			sh.Publish(i%shards, OpSet, uint64(i), 1, want, toks[i])
		}
		want += batch
		for completions.Load() != want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 20; i++ { // warm-up: rings, maps and buffers reach their steady size
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg > 0.5 {
		t.Fatalf("%.1f allocations per %d-record round trip, want 0", avg, batch)
	}

	w.sb.Stop()
	if err := <-runDone; err != ErrStandbyStopped {
		t.Fatalf("Run returned %v, want ErrStandbyStopped", err)
	}
	sh.Close()
}
