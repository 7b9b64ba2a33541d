package replica

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Applier is the store surface the standby needs to replay records —
// a structural subset of the server's Store interface, so McStore and
// RespStore satisfy it without this package importing the server.
type Applier interface {
	NumShards() int
	Set(t persist.Thread, shard int, k0, k1, val uint64)
	Del(t persist.Thread, shard int, k0, k1 uint64) bool
}

// RootReplWatermarks is the region root slot anchoring the standby's
// durable per-shard applied-watermark table (the server's shard
// directories hold 26 and 27).
const RootReplWatermarks = 28

// wmMagic tags the watermark table header: magic<<32 | nshards.
const wmMagic = 0x1D0AB

// Standby states, exported for readiness and metrics.
const (
	StateConnecting = iota
	StateStreaming
	StateReconnecting
	StateDraining
	StatePromoted
	StateStopped
	StateCrashed
)

// StandbyConfig wires a standby applier.
type StandbyConfig struct {
	// Store is the standby's own attached store (same shard count as
	// the primary's).
	Store Applier
	// RT supplies one persist.Thread per shard for the apply FASEs.
	RT persist.Runtime
	// Reg is the standby's region; the durable watermark table lives
	// under RootReplWatermarks.
	Reg *region.Region
	// HeartbeatTimeout is the stream read deadline: a stream silent for
	// this long (no records, no heartbeats) counts as a lost primary
	// (default 1s). The deadline is re-armed every eighth of it rather
	// than per frame, so silence is declared after 7/8 of it at the
	// earliest.
	HeartbeatTimeout time.Duration
	// ReconnectBudget is how many consecutive failed dials declare the
	// primary dead and begin promotion (default 3).
	ReconnectBudget int
	// ReconnectBackoff is the base reconnect delay, doubled per attempt
	// with jitter (default 25ms).
	ReconnectBackoff time.Duration
	// WatermarkEvery persists the applied-watermark table every K
	// applied records (default 64); it is also persisted whenever the
	// apply queue drains and at promotion.
	WatermarkEvery int
}

// applyQueue bounds the received-but-unapplied record queue.
const applyQueue = 8192

func (c *StandbyConfig) fill() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Second
	}
	if c.ReconnectBudget <= 0 {
		c.ReconnectBudget = 3
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = 25 * time.Millisecond
	}
	if c.WatermarkEvery <= 0 {
		c.WatermarkEvery = 64
	}
}

// ErrStandbyCrashed is returned by Run when an apply FASE died on an
// injected device crash; the caller recovers the region and rebuilds.
var ErrStandbyCrashed = errors.New("replica: standby crashed mid-apply")

// ErrStandbyStopped is returned by Run after Stop.
var ErrStandbyStopped = errors.New("replica: standby stopped")

// Standby receives the replication stream, applies records through the
// FASE machinery, and promotes itself when the primary dies.
type Standby struct {
	cfg StandbyConfig
	dev *nvm.Device

	wmAddr uint64 // watermark table base (header word + nshards words)
	ths    []persist.Thread

	// Per-shard sequences. applySeq is pipeline-goroutine-owned between
	// watermark persists; durSeq/recvSeq are read by the acker and
	// metrics.
	applySeq []uint64
	durSeq   []atomic.Uint64
	recvSeq  []atomic.Uint64

	queue chan rec

	state    atomic.Int32
	stopc    chan struct{}
	stopOnce sync.Once
	promc    chan struct{} // closed when promotion completes

	// Apply closure scratch (apply goroutine only).
	cur rec
	fns []func()

	mu sync.Mutex
	nc net.Conn

	sinceWM int

	// Counters for ReplSnapshot.
	applied    atomic.Uint64
	skipped    atomic.Uint64
	recvRecs   atomic.Uint64
	recvBytes  atomic.Uint64
	reconnects atomic.Uint64
	promotions atomic.Uint64
}

// NewStandby builds a standby over an attached (and already recovered)
// store. It creates or reopens the durable watermark table at
// RootReplWatermarks and one apply thread per shard.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Store == nil || cfg.RT == nil || cfg.Reg == nil {
		return nil, errors.New("replica: StandbyConfig needs Store, RT, and Reg")
	}
	cfg.fill()
	n := cfg.Store.NumShards()
	sb := &Standby{
		cfg:      cfg,
		dev:      cfg.Reg.Dev,
		applySeq: make([]uint64, n),
		durSeq:   make([]atomic.Uint64, n),
		recvSeq:  make([]atomic.Uint64, n),
		queue:    make(chan rec, applyQueue),
		stopc:    make(chan struct{}),
		promc:    make(chan struct{}),
	}
	if err := sb.openWatermarks(n); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		th, err := cfg.RT.NewThread()
		if err != nil {
			return nil, fmt.Errorf("replica: apply thread %d: %w", i, err)
		}
		sb.ths = append(sb.ths, th)
		shard, t := i, th
		sb.fns = append(sb.fns, func() {
			if sb.cur.op == recDel {
				sb.cfg.Store.Del(t, shard, sb.cur.k0, sb.cur.k1)
			} else {
				sb.cfg.Store.Set(t, shard, sb.cur.k0, sb.cur.k1, sb.cur.val)
			}
		})
	}
	sb.state.Store(StateConnecting)
	return sb, nil
}

// openWatermarks creates (first boot) or reopens the durable watermark
// table and loads the applied sequences from it.
func (sb *Standby) openWatermarks(n int) error {
	reg := sb.cfg.Reg
	if addr := reg.Root(RootReplWatermarks); addr != 0 {
		hdr := sb.dev.Load64(addr)
		if hdr>>32 != wmMagic || int(hdr&0xFFFFFFFF) != n {
			return fmt.Errorf("replica: watermark table header %#x does not match %d shards", hdr, n)
		}
		sb.wmAddr = addr
		for i := 0; i < n; i++ {
			w := sb.dev.Load64(addr + 8 + uint64(i)*8)
			sb.applySeq[i] = w
			sb.durSeq[i].Store(w)
			sb.recvSeq[i].Store(w)
		}
		return nil
	}
	addr, err := reg.Alloc.Alloc(8 * (1 + n))
	if err != nil {
		return fmt.Errorf("replica: allocating watermark table: %w", err)
	}
	sb.dev.Store64(addr, wmMagic<<32|uint64(n))
	for i := 0; i < n; i++ {
		sb.dev.Store64(addr+8+uint64(i)*8, 0)
	}
	sb.dev.PersistRange(addr, uint64(8*(1+n)))
	sb.dev.Fence()
	reg.SetRoot(RootReplWatermarks, addr)
	sb.wmAddr = addr
	return nil
}

// persistWatermarks publishes the applied sequences durably. Each word
// is 8-byte-atomic and monotonic, so a crash mid-persist only leaves
// some shards at an older (lower) watermark — replay re-applies a
// suffix, which record idempotence absorbs.
func (sb *Standby) persistWatermarks() {
	for i, w := range sb.applySeq {
		if sb.durSeq[i].Load() != w {
			sb.dev.Store64(sb.wmAddr+8+uint64(i)*8, w)
		}
	}
	sb.dev.PersistRange(sb.wmAddr, uint64(8*(1+len(sb.applySeq))))
	sb.dev.Fence()
	for i, w := range sb.applySeq {
		sb.durSeq[i].Store(w)
	}
	sb.sinceWM = 0
}

// State reports the standby's lifecycle state.
func (sb *Standby) State() int { return int(sb.state.Load()) }

// Promoted is closed when promotion completes: the queue is drained,
// watermarks are durable, and the caller may recover and serve.
func (sb *Standby) Promoted() <-chan struct{} { return sb.promc }

// Stop halts the standby without promoting (graceful shutdown).
func (sb *Standby) Stop() {
	sb.stopOnce.Do(func() { close(sb.stopc) })
	sb.mu.Lock()
	if sb.nc != nil {
		sb.nc.Close()
	}
	sb.mu.Unlock()
}

// Run connects to the primary via dial and processes the replication
// stream until the primary dies — at which point it drains, persists
// watermarks, and returns nil with the standby Promoted — or until
// Stop (ErrStandbyStopped) or an injected crash (ErrStandbyCrashed).
//
// The promotion state machine:
//
//	Connecting -> Streaming -> (stream lost) Reconnecting
//	Reconnecting -> Streaming (dial succeeded; budget resets)
//	Reconnecting -> Draining (budget exhausted: primary is dead)
//	Draining -> Promoted (queue empty, watermarks durable)
func (sb *Standby) Run(dial func() (net.Conn, error)) error {
	applyErr := make(chan error, 1)
	go sb.applyLoop(applyErr)

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	attempts := 0
	everStreamed := false
	for {
		select {
		case <-sb.stopc:
			sb.finishApply(applyErr)
			sb.state.Store(StateStopped)
			return ErrStandbyStopped
		case err := <-applyErr:
			return sb.noteApplyDeath(err)
		default:
		}
		if attempts > 0 {
			if everStreamed && attempts > sb.cfg.ReconnectBudget {
				break // primary declared dead
			}
			// Exponential backoff with jitter before the retry. Before
			// the first successful stream the budget never exhausts: a
			// standby that has not yet replicated anything must not
			// promote an empty store just because the primary is slow
			// to boot.
			shift := uint(attempts - 1)
			if shift > 8 {
				shift = 8
			}
			d := sb.cfg.ReconnectBackoff << shift
			d += time.Duration(rng.Int63n(int64(d)/2 + 1))
			select {
			case <-time.After(d):
			case <-sb.stopc:
				continue
			}
		}
		nc, err := dial()
		if err != nil {
			attempts++
			sb.state.Store(StateReconnecting)
			sb.reconnects.Add(1)
			continue
		}
		streamed := false
		err = sb.stream(nc, applyErr, &streamed)
		if streamed {
			everStreamed = true
		}
		if errors.Is(err, errApplyDied) {
			return sb.noteApplyDeath(<-applyErr)
		}
		select {
		case <-sb.stopc:
			continue
		default:
		}
		attempts = 1
		sb.state.Store(StateReconnecting)
		sb.reconnects.Add(1)
	}

	// Promotion: drain everything received, persist watermarks, flip.
	sb.state.Store(StateDraining)
	if err := sb.finishApply(applyErr); err != nil {
		return sb.noteApplyDeath(err)
	}
	sb.promotions.Add(1)
	sb.state.Store(StatePromoted)
	close(sb.promc)
	return nil
}

// errApplyDied distinguishes "stream ended because the applier died"
// from stream transport errors.
var errApplyDied = errors.New("replica: apply goroutine died")

// stream sends HELLO on nc and consumes records until the stream
// breaks or the standby stops. *streamed is set once the HELLO has
// been written (the standby has been a live replica of this primary).
func (sb *Standby) stream(nc net.Conn, applyErr chan error, streamed *bool) error {
	sb.mu.Lock()
	sb.nc = nc
	sb.mu.Unlock()
	defer func() {
		sb.mu.Lock()
		sb.nc = nil
		sb.mu.Unlock()
		nc.Close()
	}()

	wm := make([]uint64, len(sb.applySeq))
	for i := range wm {
		wm[i] = sb.durSeq[i].Load()
	}
	if err := writeHello(nc, wm); err != nil {
		return err
	}
	*streamed = true
	sb.state.Store(StateStreaming)

	br := bufio.NewReaderSize(nc, 64<<10)
	var buf [1 + recordSize]byte
	ackBuf := make([]byte, 0, 256)
	// Last acked positions, so every batch boundary (including a bare
	// heartbeat) reports any receipt or durability progress — the
	// durable watermark advances asynchronously in the apply loop, and
	// the primary cannot trim until it hears about it.
	sentRecv := make([]uint64, len(sb.applySeq))
	sentDur := make([]uint64, len(sb.applySeq))
	for i := range sentRecv {
		sentRecv[i] = sb.recvSeq[i].Load()
		sentDur[i] = sb.durSeq[i].Load()
	}
	// A busy stream must not reset a timer per record: the deadline
	// moves only once it is an eighth of the timeout old.
	var armed time.Time
	for {
		// Notice an apply death promptly even when the queue never
		// fills: a crashed applier must surface as errApplyDied, not be
		// masked by a healthy stream.
		select {
		case err := <-applyErr:
			applyErr <- err
			return errApplyDied
		default:
		}
		if now := time.Now(); now.Sub(armed) >= sb.cfg.HeartbeatTimeout/8 {
			nc.SetReadDeadline(now.Add(sb.cfg.HeartbeatTimeout))
			armed = now
		}
		if _, err := io.ReadFull(br, buf[:1]); err != nil {
			return err
		}
		switch buf[0] {
		case frameHeart:
			sb.recvBytes.Add(1)
		case frameRecord:
			if _, err := io.ReadFull(br, buf[1:]); err != nil {
				return err
			}
			r := decodeRecord(buf[1:])
			if int(r.shard) >= len(sb.applySeq) {
				return fmt.Errorf("replica: record for unknown shard %d", r.shard)
			}
			sb.recvRecs.Add(1)
			sb.recvBytes.Add(1 + recordSize)
			select {
			case sb.queue <- r:
			case err := <-applyErr:
				applyErr <- err
				return errApplyDied
			case <-sb.stopc:
				return ErrStandbyStopped
			}
			sb.recvSeq[r.shard].Store(r.seq)
		default:
			return fmt.Errorf("replica: unexpected frame %#x from primary", buf[0])
		}
		// Ack at batch boundaries: while further frames are already
		// buffered, keep consuming; when the reader drains, flush one
		// ack per shard whose receipt or durable position moved.
		if br.Buffered() == 0 {
			ackBuf = ackBuf[:0]
			for i := range sentRecv {
				rcv, dur := sb.recvSeq[i].Load(), sb.durSeq[i].Load()
				if rcv != sentRecv[i] || dur != sentDur[i] {
					ackBuf = appendAck(ackBuf, uint32(i), rcv, dur)
					sentRecv[i], sentDur[i] = rcv, dur
				}
			}
			if len(ackBuf) > 0 {
				if _, err := nc.Write(ackBuf); err != nil {
					return err
				}
			}
		}
	}
}

// applyLoop replays records through the FASE machinery, one goroutine
// owning every shard's apply thread (records arrive in one stream, so
// total order is free and per-shard order preserved). Watermarks
// persist every WatermarkEvery applies and whenever the queue drains.
func (sb *Standby) applyLoop(applyErr chan error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); ok {
				applyErr <- ErrStandbyCrashed
				return
			}
			panic(r)
		}
	}()
	for {
		var r rec
		select {
		case r = <-sb.queue:
		case <-sb.stopc:
			// Drain what was received before stopping: promotion and
			// graceful shutdown both want receipt implies applied.
			select {
			case r = <-sb.queue:
			default:
				sb.persistWatermarks()
				applyErr <- nil
				return
			}
		}
		if r.seq <= sb.applySeq[r.shard] {
			// Replay duplicate (redelivery after reconnect): skip.
			sb.skipped.Add(1)
			continue
		}
		sb.cur = r
		sb.ths[r.shard].Exec(sb.fns[r.shard])
		sb.applySeq[r.shard] = r.seq
		sb.applied.Add(1)
		sb.sinceWM++
		if sb.sinceWM >= sb.cfg.WatermarkEvery || len(sb.queue) == 0 {
			sb.persistWatermarks()
		}
	}
}

// finishApply stops the apply goroutine after the queue drains and
// returns its exit error (nil on a clean drain).
func (sb *Standby) finishApply(applyErr chan error) error {
	sb.stopOnce.Do(func() { close(sb.stopc) })
	return <-applyErr
}

func (sb *Standby) noteApplyDeath(err error) error {
	if errors.Is(err, ErrStandbyCrashed) {
		sb.state.Store(StateCrashed)
	} else {
		sb.state.Store(StateStopped)
	}
	if err == nil {
		err = ErrStandbyStopped
	}
	return err
}

// ReplSnapshot fills dst with the standby-side replication gauges.
func (sb *Standby) ReplSnapshot(dst *metrics.ReplStats) {
	dst.Role = metrics.ReplRoleStandby
	dst.Attached = 0
	if sb.state.Load() == StateStreaming {
		dst.Attached = 1
	}
	dst.Records = sb.applied.Load()
	dst.Bytes = sb.recvBytes.Load()
	dst.AckedRecs = sb.applied.Load()
	dst.Degraded = sb.skipped.Load()
	dst.Reconnects = sb.reconnects.Load()
	dst.Failovers = sb.promotions.Load()
	var lag uint64
	for i := range sb.recvSeq {
		lag += sb.recvSeq[i].Load() - sb.durSeq[i].Load()
	}
	dst.LagRecs = lag
	dst.LagBytes = lag * (1 + recordSize)
	dst.LagNS = 0
}
