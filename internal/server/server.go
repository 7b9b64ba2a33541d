// Package server is the networked front end over the paper's Fig. 5
// key-value runtimes: a memcache-text-protocol server backed by
// kv/memcache and a RESP server backed by kv/redis.
//
// The shape is the whole point. Per-connection reader goroutines parse
// zero-copy frames and hash each request to one of N shard pipelines; a
// shard pipeline is a single goroutine owning one persist.Thread and one
// store shard, executing FASEs back-to-back. Under load every shard has
// a request in hand, so N commit streams fence concurrently, each paying
// for its own fence as one core's sfence would. Responses complete out
// of order across shards but are emitted in arrival order per connection
// through a fixed slot ring, and a per-connection writer batches however
// many responses are ready into one socket write.
//
// GETs skip the pipeline when they can: the reader walks the store
// device-direct under its shard's seqlock epoch, and on an odd epoch (a
// write in flight) spins on that epoch until the write finishes. A key
// the fast lane cannot serve is dispatched to its shard on its own, like
// any single GET; ring order alone gives a multi-get its reply order.
//
// Everything on the steady-state path is allocation-free: slots are
// fixed rings, free-slot tokens are a counting-semaphore channel,
// completions ring an edge-triggered doorbell, response bytes are built
// in place with append into array-backed slices.
package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/replica"
)

// Proto selects the wire protocol (and with it the backend flavor).
type Proto uint8

const (
	ProtoMemcache Proto = iota
	ProtoRESP
)

func (p Proto) String() string {
	if p == ProtoRESP {
		return "resp"
	}
	return "memcache"
}

// ErrServerClosed is returned by Serve and ServeConn after Close (or a
// device crash) has shut the server down.
var ErrServerClosed = errors.New("server: closed")

// ErrServerBusy is returned by ServeConn when the MaxConns accept gate
// refuses a connection (after sending the canned busy reply).
var ErrServerBusy = errors.New("server: too many connections")

// Fixed sizes of the per-connection and per-shard machinery.
const (
	// ringSize is the per-connection pipeline depth: the number of
	// in-flight request slots. A reader that gets ahead of its shards by
	// this much blocks until responses drain.
	ringSize = 256
	// shardQueue is the per-shard request queue depth.
	shardQueue = 256
	// readBuf is the per-connection read buffer; every parseable frame
	// fits inside 8 KiB (see the parser bounds).
	readBuf = 64 << 10
	// writeBuf is the per-connection response batch buffer; the writer
	// flushes when it fills or when no further response is ready.
	writeBuf = 32 << 10
)

// Config selects the protocol and the optional serving policies.
type Config struct {
	Proto Proto
	// Metrics, when non-nil, is the collector the in-band introspection
	// verbs (memcache `stats`, RESP `INFO`) answer from. New attaches the
	// server as the collector's Source if none is set, so the same
	// collector drives the admin plane's /metrics. When nil the server
	// builds a private collector over its own gauges alone.
	Metrics *metrics.Collector
	// MaxItems, when > 0, is the per-shard live-item watermark: after
	// each mutating FASE, before its reply is completed, the pipeline
	// thread evicts (at most a couple per request, so writes stay
	// bounded) while the shard exceeds it.
	MaxItems int
	// DisableFastReads forces every GET through the slot path,
	// serializing reads behind writes on the shard pipelines. The slot
	// path is the reference the fast lane's tests compare against;
	// leave false to serve reads lock-free.
	DisableFastReads bool
	// Repl, when non-nil, is the hot-standby log shipper: every
	// state-changing FASE publishes a replication record after its
	// commit fence, and the client completion is deferred until the
	// standby's receipt ack (DESIGN.md §11). Must be built for the
	// store's shard count.
	Repl *replica.Shipper
	// MaxConns, when > 0, bounds concurrently served connections: an
	// accept beyond it gets a canned busy error and an immediate close
	// instead of a slot ring.
	MaxConns int
	// IdleTimeout, when > 0, is the per-connection read deadline: a
	// connection idle longer than this is closed (after flushing any
	// pending responses).
	IdleTimeout time.Duration
}

// respCap bounds one encoded response: the longest memcache VALUE line
// (6+16+3+2+2+20+2 bytes) plus END, and every canned error line, fit.
const respCap = 96

// slot is one in-flight request. The reader fills it, exactly one shard
// pipeline (or the reader itself, for local replies) completes it, and
// the connection writer emits and recycles it. done is the only
// cross-goroutine field: Store(true) after the fields are final
// publishes them to the writer's Load.
type slot struct {
	c       *conn
	op      uint8
	last    bool // final key of a multi-get: append END
	noreply bool
	fatal   bool // close the connection after emitting this response
	klen    uint8
	shard   int32
	key     [maxKeyLen]byte
	k0, k1  uint64
	val     uint64
	ts      int64 // tracer clock at dispatch (0 when tracing is off)
	vOut    uint64
	okOut   bool
	rlen    int32
	mhdr    int32 // >0 on an MGET's first slot: prepend the *N array header
	resp    [respCap]byte
	// big is the overflow response for replies that cannot fit resp
	// (stats/INFO bodies). Filled reader-side, consumed and nilled by the
	// writer; always nil on the GET/SET/DEL hot path, which stays
	// allocation-free.
	big  []byte
	done atomic.Bool
}

// conn is one client connection: a slot ring plus the two channels that
// sequence it. free is a counting semaphore holding a token per
// recyclable slot (reader consumes on claim, writer returns on emit).
// cmpl is an edge-triggered doorbell (capacity 1): complete() rings it
// with a non-blocking send after publishing done, and the writer drains
// every done slot per ring. Because each done.Store happens before its
// send attempt, and a failed send means the writer has a consume-then-
// rescan still ahead of it, no completion is ever missed — and a
// completer can never block, so shard pipelines cannot stall on a slow
// or dead connection.
type conn struct {
	srv   *Server
	nc    net.Conn
	ring  []slot
	free  chan struct{}
	cmpl  chan struct{}
	deadc chan struct{} // closed when the writer exits: unblocks the reader
	rseq  uint64        // next slot to claim (reader only)
	wseq  uint64        // next slot to emit (writer only)
	wbuf  []byte

	touchN uint64 // fast-read hit counter driving LRU touch sampling (reader only)

	// wpend[i] counts this connection's mutating slots dispatched to
	// shard i and not yet executed (reader increments at dispatch, shard
	// decrements after the FASE's even epoch bump). The fast lane is
	// gated on wpend == 0 so a pipelined get never overtakes this
	// connection's own earlier writes: memcache/RESP promise
	// read-your-writes per connection, and a device-direct read sees
	// only what has already committed.
	wpend []atomic.Int32
}

// shard is one commit pipeline: a goroutine owning one persist.Thread
// and one store shard. fn is built once — the Exec closure reads cur, so
// the hot loop allocates nothing.
type shard struct {
	srv  *Server
	idx  int
	th   persist.Thread
	in   chan *slot
	cur  *slot
	fn   func()
	ring *obs.Ring

	// seq is the shard's seqlock epoch: odd exactly while a mutating
	// FASE (set/del/incr/decr/evict) runs on the pipeline thread. Fast
	// readers snapshot it, walk the store device-direct, and re-check;
	// an even, unchanged epoch proves the observed data came from a
	// completed — hence fenced, hence durable — FASE. GETs on the slot
	// path write nothing (getDirect) or, like touch drains, only
	// read-stat words (cmd_get/hits/iTime) that fast readers never load,
	// so neither bumps.
	seq atomic.Uint64

	// touch is the sampled LRU-touch ring: fast-read hits enqueue keys
	// (lossy, non-blocking) and the pipeline thread drains each as one
	// ordinary FASE, retiring the batched read-stat counts alongside.
	touch    chan [2]uint64
	pendGets atomic.Uint64
	pendHits atomic.Uint64
	touchN   uint64    // getDirect hit counter driving touch sampling (pipeline thread only)
	tkey     [2]uint64 // drain-in-progress args (pipeline thread only)
	tgets    uint64
	thits    uint64
	touchFn  func()
	evFn     func()
	evOK     bool

	// Pipeline gauges/counters, read by MetricsSnapshot. inflight is 1
	// while the shard thread is inside a FASE; queue depth is len(in).
	inflight atomic.Int32
	reqs     atomic.Uint64
	verbs    [3]atomic.Uint64 // gets, sets, dels (indexed op-opGet)
	incrs    atomic.Uint64    // incr + decr, which share the RMW path
	hits     atomic.Uint64
	misses   atomic.Uint64

	// Fast-lane counters: served lock-free, seqlock conflicts retried,
	// waits on an in-flight write's odd epoch, and falls back to the
	// slot path.
	fastGets    atomic.Uint64
	fastRetries atomic.Uint64
	fastParks   atomic.Uint64
	fastFalls   atomic.Uint64
	touches     atomic.Uint64
	evictions   atomic.Uint64

	// onPark, nil outside tests, runs when fastGet starts waiting on an
	// odd epoch.
	onPark func()
}

// Server multiplexes client connections over the shard pipelines.
type Server struct {
	cfg    Config
	store  Store
	tr     *obs.Tracer
	shards []*shard

	stopc     chan struct{} // closed on Close or crash: everything unwinds
	crashc    chan struct{} // closed only when a FASE hit an injected crash
	stopOnce  sync.Once
	crashOnce sync.Once
	wg        sync.WaitGroup

	mu     sync.Mutex
	conns  map[*conn]struct{}
	lns    []net.Listener
	closed bool

	coll *metrics.Collector
	repl *replica.Shipper

	draining atomic.Bool

	reqs          atomic.Uint64
	batches       atomic.Uint64
	bytesOut      atomic.Uint64
	bytesIn       atomic.Uint64
	protoErrs     atomic.Uint64
	connsOpen     atomic.Int64
	connsTotal    atomic.Uint64
	connsRejected atomic.Uint64
	idleClosed    atomic.Uint64
	crashes       atomic.Uint64
}

// New builds a server over an attached store. One persist.Thread is
// created per store shard; rt must therefore have capacity for
// store.NumShards() more threads. tr may be nil (tracing off).
func New(rt persist.Runtime, store Store, cfg Config, tr *obs.Tracer) (*Server, error) {
	srv := &Server{
		cfg:    cfg,
		store:  store,
		tr:     tr,
		stopc:  make(chan struct{}),
		crashc: make(chan struct{}),
		conns:  map[*conn]struct{}{},
	}
	if cfg.Repl != nil {
		if cfg.Repl.Shards() != store.NumShards() {
			return nil, fmt.Errorf("server: shipper built for %d shards, store has %d", cfg.Repl.Shards(), store.NumShards())
		}
		srv.repl = cfg.Repl
		srv.repl.SetComplete(func(tok any) { complete(tok.(*slot)) })
	}
	for i := 0; i < store.NumShards(); i++ {
		th, err := rt.NewThread()
		if err != nil {
			// Unwind the shard goroutines already started before the
			// unreachable Server leaks them (and their persist threads).
			srv.shutdown()
			srv.wg.Wait()
			return nil, fmt.Errorf("server: shard %d thread: %w", i, err)
		}
		sh := &shard{
			srv:   srv,
			idx:   i,
			th:    th,
			in:    make(chan *slot, shardQueue),
			touch: make(chan [2]uint64, 64),
			ring:  tr.ThreadRing(fmt.Sprintf("server/shard%d", i)),
		}
		sh.fn = func() { sh.exec(sh.cur) }
		sh.touchFn = func() {
			sh.srv.store.Touch(sh.th, sh.idx, sh.tkey[0], sh.tkey[1], sh.tgets, sh.thits)
		}
		sh.evFn = func() { sh.evOK = sh.srv.store.EvictOne(sh.th, sh.idx) }
		srv.shards = append(srv.shards, sh)
		srv.wg.Add(1)
		go sh.run()
	}
	if cfg.Metrics != nil {
		srv.coll = cfg.Metrics
		if srv.coll.Src == nil {
			srv.coll.Src = srv
		}
	} else {
		srv.coll = metrics.NewCollector(tr, nil)
		srv.coll.Src = srv
	}
	return srv, nil
}

// Crashed is closed when a shard pipeline hit an injected device crash;
// the server then shuts down as a crashed process would — abruptly,
// leaving recovery to the next attach.
func (srv *Server) Crashed() <-chan struct{} { return srv.crashc }

// MetricsSnapshot fills dst with the front end's gauges and counters —
// the metrics.Source contract. dst's shard slice is reused whenever its
// capacity suffices, so a caller that holds its Snapshot reads at
// 0 allocs/op in steady state.
func (srv *Server) MetricsSnapshot(dst *metrics.ServerStats) {
	dst.ConnsOpen = srv.connsOpen.Load()
	dst.ConnsTotal = srv.connsTotal.Load()
	dst.Reqs = srv.reqs.Load()
	dst.Batches = srv.batches.Load()
	dst.BytesIn = srv.bytesIn.Load()
	dst.BytesOut = srv.bytesOut.Load()
	dst.ProtoErrs = srv.protoErrs.Load()
	dst.ConnsRejected = srv.connsRejected.Load()
	dst.IdleClosed = srv.idleClosed.Load()
	dst.Crashes = srv.crashes.Load()
	n := len(srv.shards)
	if cap(dst.Shards) < n {
		dst.Shards = make([]metrics.ShardStats, n)
	}
	dst.Shards = dst.Shards[:n]
	for i, sh := range srv.shards {
		d := &dst.Shards[i]
		d.QueueDepth = int64(len(sh.in))
		d.InFlight = int64(sh.inflight.Load())
		d.Reqs = sh.reqs.Load()
		d.Gets = sh.verbs[0].Load()
		d.Sets = sh.verbs[1].Load()
		d.Dels = sh.verbs[2].Load()
		d.Incrs = sh.incrs.Load()
		d.Hits = sh.hits.Load()
		d.Misses = sh.misses.Load()
		d.FastGets = sh.fastGets.Load()
		d.FastRetries = sh.fastRetries.Load()
		d.FastParks = sh.fastParks.Load()
		d.FastFallbacks = sh.fastFalls.Load()
		d.Touches = sh.touches.Load()
		d.Evictions = sh.evictions.Load()
	}
}

// ServeConn adopts a connection: it starts the reader and writer
// goroutines and returns. The connection is closed when the client
// quits, errors, or the server stops.
func (srv *Server) ServeConn(nc net.Conn) error {
	if max := srv.cfg.MaxConns; max > 0 && srv.connsOpen.Load() >= int64(max) {
		// Ingress gate: refuse with a canned error the client's protocol
		// can parse, then close. No ring, no goroutines — a connection
		// storm costs the server one write per reject.
		srv.connsRejected.Add(1)
		if srv.cfg.Proto == ProtoMemcache {
			nc.Write([]byte("SERVER_ERROR busy\r\n"))
		} else {
			nc.Write([]byte("-ERR server busy\r\n"))
		}
		nc.Close()
		return ErrServerBusy
	}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		nc.Close()
		return ErrServerClosed
	}
	c := &conn{
		srv:   srv,
		nc:    nc,
		ring:  make([]slot, ringSize),
		free:  make(chan struct{}, ringSize),
		cmpl:  make(chan struct{}, 1),
		deadc: make(chan struct{}),
		wbuf:  make([]byte, 0, writeBuf),
		wpend: make([]atomic.Int32, len(srv.shards)),
	}
	srv.conns[c] = struct{}{}
	srv.mu.Unlock()
	srv.connsTotal.Add(1)
	srv.connsOpen.Add(1)
	for i := 0; i < ringSize; i++ {
		c.free <- struct{}{}
	}
	srv.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return nil
}

// Serve accepts connections from l until the listener or server closes.
// It blocks; run it in its own goroutine to serve several listeners.
func (srv *Server) Serve(l net.Listener) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	srv.lns = append(srv.lns, l)
	srv.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			// Drain closes the listeners before stopc: either way the
			// accept failure is an ordered shutdown, not an error.
			if srv.draining.Load() {
				return ErrServerClosed
			}
			select {
			case <-srv.stopc:
				return ErrServerClosed
			default:
				return err
			}
		}
		srv.ServeConn(nc)
	}
}

// Close stops the server and waits for every goroutine to unwind. Safe
// after a crash (it then only joins).
func (srv *Server) Close() error {
	if srv.repl != nil {
		srv.repl.Close()
	}
	srv.shutdown()
	srv.wg.Wait()
	return nil
}

// Drain is the graceful shutdown path: stop accepting, nudge every
// connection's reader off its blocking Read, and wait (up to timeout)
// for in-flight FASEs to finish and their responses to flush before
// tearing the process down. A final fence orders every write-back
// issued before it. Safe to call once; Close after Drain only joins.
func (srv *Server) Drain(timeout time.Duration) error {
	srv.draining.Store(true)
	srv.mu.Lock()
	for _, l := range srv.lns {
		l.Close()
	}
	conns := make([]*conn, 0, len(srv.conns))
	for c := range srv.conns {
		conns = append(conns, c)
	}
	srv.mu.Unlock()
	// Expire every reader's deadline: the Read returns, the reader
	// emits its zero-length fatal slot, and the writer flushes pending
	// responses before closing — exactly the torn-connection path, but
	// with all acked work preserved.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	deadline := time.Now().Add(timeout)
	for srv.connsOpen.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	left := srv.connsOpen.Load()
	if srv.repl != nil {
		srv.repl.Close()
	}
	srv.shutdown()
	srv.wg.Wait()
	// Order every write-back issued so far before exit.
	srv.store.Device().Fence()
	if left > 0 {
		return fmt.Errorf("server: drain timed out with %d connections open", left)
	}
	return nil
}

func (srv *Server) shutdown() {
	srv.stopOnce.Do(func() { close(srv.stopc) })
	srv.mu.Lock()
	srv.closed = true
	for c := range srv.conns {
		c.nc.Close()
	}
	for _, l := range srv.lns {
		l.Close()
	}
	srv.mu.Unlock()
}

// noteCrash records an injected-crash death. Called from a shard
// goroutine, so it must not wait on the WaitGroup it is part of.
func (srv *Server) noteCrash() {
	srv.crashOnce.Do(func() {
		srv.crashes.Add(1)
		close(srv.crashc)
	})
	if srv.repl != nil {
		// Process death: sever the replication stream without running
		// completions — the in-flight clients die unacked, which is the
		// invariant the failover tests lean on (unacked may be lost,
		// acked must survive on the standby).
		srv.repl.Kill()
	}
	srv.shutdown()
}

func (srv *Server) dropConn(c *conn) {
	srv.mu.Lock()
	delete(srv.conns, c)
	srv.mu.Unlock()
	srv.connsOpen.Add(-1)
	c.nc.Close()
}

// ---- shard pipeline ----

func (sh *shard) exec(s *slot) {
	switch s.op {
	case opGet:
		s.vOut, s.okOut = sh.srv.store.Get(sh.th, sh.idx, s.k0, s.k1)
	case opSet:
		sh.srv.store.Set(sh.th, sh.idx, s.k0, s.k1, s.val)
	case opDel:
		s.okOut = sh.srv.store.Del(sh.th, sh.idx, s.k0, s.k1)
	case opIncr, opDecr:
		s.vOut, s.okOut = sh.srv.store.Incr(sh.th, sh.idx, s.k0, s.k1, s.val, s.op == opDecr)
	}
}

func (sh *shard) run() {
	defer sh.srv.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); ok {
				sh.srv.noteCrash()
				return
			}
			panic(r)
		}
	}()
	mc := sh.srv.cfg.Proto == ProtoMemcache
	for {
		select {
		case s := <-sh.in:
			sh.serve(s, mc)
		case k := <-sh.touch:
			sh.drainTouch(k)
		case <-sh.srv.stopc:
			return
		}
	}
}

// getDirect serves a slot-path GET without a FASE. The pipeline thread
// is its shard's only writer, so between FASEs everything GetFast can
// reach was written by a FASE whose final fence has drained: the read
// needs no lock, no seqlock validation and no fence. false (fast reads
// disabled, or a walk that could not complete) leaves the GET to its
// FASE.
func (sh *shard) getDirect(s *slot, mc bool) bool {
	if sh.srv.cfg.DisableFastReads {
		return false
	}
	v, hit, ok := sh.srv.store.GetFast(sh.idx, s.k0, s.k1)
	if !ok {
		return false
	}
	s.vOut, s.okOut = v, hit
	if mc {
		sh.noteRead(hit, s.k0, s.k1, &sh.touchN)
	}
	return true
}

// noteRead batches the durable read stats of one memcache GET served
// device-direct (the next touch drain retires them) and samples 1 in 16
// hits, counted in the caller's n, for an LRU touch — dropped when the
// ring is full.
func (sh *shard) noteRead(hit bool, k0, k1 uint64, n *uint64) {
	sh.pendGets.Add(1)
	if !hit {
		return
	}
	sh.pendHits.Add(1)
	*n++
	if *n&15 == 0 {
		select {
		case sh.touch <- [2]uint64{k0, k1}:
		default:
		}
	}
}

// serve executes one slot's operation and completes it. Mutating ops run
// inside the shard's seqlock write section: the odd bump before Exec
// tells fast readers a write is in flight, the even bump after — which
// happens only once Exec has returned, i.e. after the FASE's final
// fence — tells them the shard is quiescent again and releases any
// reader waiting on the odd epoch.
func (sh *shard) serve(s *slot, mc bool) {
	sh.inflight.Store(1)
	sh.cur = s
	wr := s.op != opGet
	if wr {
		sh.seq.Add(1)
	}
	if wr || !sh.getDirect(s, mc) {
		sh.th.Exec(sh.fn)
	}
	sh.cur = nil
	if wr {
		sh.seq.Add(1)
		// The write is applied and the epoch even again: release the
		// owning connection's read-your-writes gate (before complete —
		// the writer may recycle s the moment it is published).
		s.c.wpend[sh.idx].Add(-1)
	}
	sh.inflight.Store(0)
	sh.reqs.Add(1)
	switch s.op {
	case opGet, opSet, opDel:
		sh.verbs[s.op-opGet].Add(1)
	case opIncr, opDecr:
		sh.incrs.Add(1)
	}
	if s.op == opGet {
		if s.okOut {
			sh.hits.Add(1)
		} else {
			sh.misses.Add(1)
		}
	}
	if mc {
		encodeMcReply(s)
	} else {
		encodeRespReply(s)
	}
	if wr {
		sh.maybeEvict()
	}
	if sh.ring != nil {
		now := sh.ring.Clock()
		sh.ring.Span(obs.KNetReq, uint64(s.op), uint64(sh.idx), s.ts)
		sh.ring.Observe(obs.HReqLatency, uint64(now-s.ts))
	}
	// State-changing mutations ship to the standby; Publish defers the
	// client completion until the standby's receipt ack (the record is
	// already durable here — Exec returned past the commit fence). Ops
	// that changed nothing (missed DELETE, failed INCR) and reads
	// complete inline: there is nothing to replicate.
	if rp := sh.srv.repl; rp != nil {
		switch {
		case s.op == opSet:
			rp.Publish(sh.idx, replica.OpSet, s.k0, s.k1, s.val, s)
		case (s.op == opIncr || s.op == opDecr) && s.okOut:
			// State-based record: ship the arithmetic result as a set
			// so replay from any watermark converges.
			rp.Publish(sh.idx, replica.OpSet, s.k0, s.k1, s.vOut, s)
		case s.op == opDel && s.okOut:
			rp.Publish(sh.idx, replica.OpDel, s.k0, s.k1, 0, s)
		default:
			complete(s)
		}
	} else {
		complete(s)
	}
}

// maybeEvict enforces the size watermark after a mutating FASE and
// before its reply is completed: while the shard holds more than
// MaxItems live items, evict — bounded per request so one write never
// stalls behind a long eviction storm. A write adds at most one item,
// so a client never reads the shard above MaxItems once its reply is
// out. Evictions are writes, so they run inside their own seqlock
// sections.
func (sh *shard) maybeEvict() {
	max := sh.srv.cfg.MaxItems
	if max <= 0 {
		return
	}
	for i := 0; i < 2 && sh.srv.store.Count(sh.idx) > uint64(max); i++ {
		sh.seq.Add(1)
		sh.th.Exec(sh.evFn)
		sh.seq.Add(1)
		if !sh.evOK {
			return
		}
		sh.evictions.Add(1)
	}
}

// drainTouch retires one sampled LRU touch plus every batched read-stat
// count as a single ordinary FASE. No seqlock bump: the touch FASE
// writes only stat words (cmd_get/hits/iTime) that fast readers never
// load, so it cannot invalidate a concurrent fast read.
func (sh *shard) drainTouch(k [2]uint64) {
	sh.tkey = k
	sh.tgets = sh.pendGets.Swap(0)
	sh.thits = sh.pendHits.Swap(0)
	sh.inflight.Store(1)
	sh.th.Exec(sh.touchFn)
	sh.inflight.Store(0)
	sh.touches.Add(1)
}

// complete publishes a finished slot to its connection writer: the done
// store is the release edge for every other slot field, and the
// non-blocking doorbell send can never stall the completer. If the send
// finds the doorbell already rung, the writer still has that token to
// consume, and it rescans the ring after every consume — so this
// completion is picked up by that pass.
func complete(s *slot) {
	c := s.c
	s.done.Store(true)
	select {
	case c.cmpl <- struct{}{}:
	default:
	}
}

// ---- connection reader ----

// claim acquires the next ring slot, blocking until the writer recycles
// one; false means the server is stopping or the writer already died.
func (c *conn) claim() (*slot, bool) {
	select {
	case <-c.free:
	case <-c.srv.stopc:
		return nil, false
	case <-c.deadc:
		return nil, false
	}
	s := &c.ring[c.rseq%uint64(len(c.ring))]
	c.rseq++
	s.c = c
	return s, true
}

// dispatch hands a filled slot to its shard pipeline; false means the
// server is stopping.
func (c *conn) dispatch(s *slot) bool {
	sh := c.srv.shards[s.shard]
	select {
	case sh.in <- s:
		return true
	case <-c.srv.stopc:
		return false
	}
}

// local completes a canned reply on the reader side without touching a
// shard. Returns false (stop reading) for fatal replies.
func (c *conn) local(reply string, fatal bool) bool {
	if len(reply) > 0 {
		// Every canned reply that is not VERSION (memcache) or +OK/+PONG
		// (RESP) reports a protocol-level refusal; count it. First-byte
		// classification is exact over the canned vocabulary: errors
		// start 'E' (ERROR), 'C' (CLIENT_ERROR), 'S' (SERVER_ERROR),
		// or '-' (RESP -ERR).
		switch reply[0] {
		case 'E', 'C', 'S', '-':
			c.srv.protoErrs.Add(1)
		}
	}
	s, ok := c.claim()
	if !ok {
		return false
	}
	s.op = opReply
	s.last, s.noreply = false, false
	s.fatal = fatal
	s.rlen = int32(copy(s.resp[:], reply))
	complete(s)
	return !fatal
}

// localStats answers an introspection verb (memcache `stats`, RESP
// `INFO`) reader-side: the snapshot and its rendering happen on this
// connection's goroutine, never a shard pipeline, and the body rides
// the slot's overflow field since stats bodies outgrow resp. The only
// allocation a stats request performs is its own response.
func (c *conn) localStats() bool {
	s, ok := c.claim()
	if !ok {
		return false
	}
	s.op = opReply
	s.last, s.noreply, s.fatal = false, false, false
	s.rlen = 0
	var snap metrics.Snapshot
	c.srv.coll.Read(&snap)
	if c.srv.cfg.Proto == ProtoMemcache {
		s.big = metrics.AppendMemcacheStats(nil, &snap)
	} else {
		s.big = metrics.AppendRESPInfo(nil, &snap)
	}
	complete(s)
	return true
}

// fillKey copies and encodes a validated wire key into the slot.
func (s *slot) fillKey(kb []byte) {
	s.klen = uint8(len(kb))
	copy(s.key[:], kb)
	for i := len(kb); i < maxKeyLen; i++ {
		s.key[i] = 0
	}
	s.k0, s.k1 = padKeyWords(s.key[:s.klen])
	s.shard = int32(s.c.srv.store.ShardOf(s.k0, s.k1))
}

// sendOp claims, fills, and dispatches one store operation.
func (c *conn) sendOp(op uint8, kb []byte, val uint64, noreply, last bool, ts int64) bool {
	s, ok := c.claim()
	if !ok {
		return false
	}
	s.op = op
	s.last = last
	s.noreply = noreply
	s.fatal = false
	s.val = val
	s.ts = ts
	s.rlen = 0
	s.mhdr = 0
	s.fillKey(kb)
	if op != opGet {
		c.wpend[s.shard].Add(1)
	}
	return c.dispatch(s)
}

// epochSpin bounds one fast-lane wait on an odd epoch, counted in loads
// of the epoch word.
const epochSpin = 1024

// fastGet runs the optimistic lock-free read protocol against one
// shard: snapshot the seqlock epoch, walk the store device-direct, and
// re-validate the epoch. An odd epoch means a mutating FASE is in
// flight — instead of re-walking hot, the reader spins on the epoch
// until it moves (yielding every 16 loads, touching no device word) or
// epochSpin loads pass, then retries. The epoch is its own cancel word:
// a writer that died mid-FASE leaves it odd, and the reader leaves by
// the bound. Bounded attempts; ok=false tells the caller to fall back
// to the slot path. A successful return was validated under an even,
// unchanged epoch, so the data it reports was produced by a completed
// FASE, whose Exec return implies its final persist fence: acked ⇒
// durable holds with zero fences on this path.
func (c *conn) fastGet(sh *shard, k0, k1 uint64) (v uint64, hit, ok bool) {
	for attempt := 0; attempt < 4; attempt++ {
		s1 := sh.seq.Load()
		if s1&1 != 0 {
			sh.fastParks.Add(1)
			if sh.onPark != nil {
				sh.onPark()
			}
			for i := 1; i <= epochSpin && sh.seq.Load() == s1; i++ {
				if i&15 == 0 {
					runtime.Gosched()
				}
			}
			continue
		}
		v, hit, wok := sh.srv.store.GetFast(sh.idx, k0, k1)
		if wok && sh.seq.Load() == s1 {
			return v, hit, true
		}
		sh.fastRetries.Add(1)
	}
	sh.fastFalls.Add(1)
	return 0, false, false
}

// sendGets serves a (multi-)get. Slots are claimed in key order — ring
// order is emission order, so the writer replies in request order
// regardless of which side completed each slot. Every key first tries
// the fast lane and, on success, completes immediately on this
// goroutine with no dispatch at all; a key that misses it is
// dispatched to its shard on its own, like a single GET.
func (c *conn) sendGets(raw []byte, keys [][2]int, mget bool, ts int64) bool {
	mc := c.srv.cfg.Proto == ProtoMemcache
	fast := !c.srv.cfg.DisableFastReads
	tr := c.srv.tr
	for i := range keys {
		s, ok := c.claim()
		if !ok {
			return false
		}
		s.op = opGet
		s.last = mc && i == len(keys)-1
		s.noreply = false
		s.fatal = false
		s.val = 0
		s.ts = ts
		s.rlen = 0
		s.mhdr = 0
		if mget && i == 0 {
			s.mhdr = int32(len(keys))
		}
		s.fillKey(raw[keys[i][0]:keys[i][1]])
		sh := c.srv.shards[s.shard]
		if fast && c.wpend[s.shard].Load() == 0 {
			if v, hit, fok := c.fastGet(sh, s.k0, s.k1); fok {
				s.vOut, s.okOut = v, hit
				sh.reqs.Add(1)
				sh.verbs[0].Add(1)
				sh.fastGets.Add(1)
				if hit {
					sh.hits.Add(1)
				} else {
					sh.misses.Add(1)
				}
				if mc {
					sh.noteRead(hit, s.k0, s.k1, &c.touchN)
					encodeMcReply(s)
				} else {
					encodeRespReply(s)
				}
				if tr != nil {
					tr.DevEmit(obs.KNetFastGet, s.k0, uint64(s.shard))
				}
				complete(s)
				continue
			}
		}
		if !c.dispatch(s) {
			return false
		}
	}
	return true
}

func (c *conn) dispatchMc(f *mcFrame, raw []byte, ts int64) bool {
	switch f.op {
	case opNone:
		return true
	case opGet:
		return c.sendGets(raw, f.keys[:f.nkeys], false, ts)
	case opSet, opDel, opIncr, opDecr:
		kb := raw[f.keys[0][0]:f.keys[0][1]]
		return c.sendOp(f.op, kb, f.val, f.noreply, false, ts)
	case opReply:
		return c.local(f.reply, f.fatal)
	case opQuit:
		return c.local("", true)
	case opStats:
		return c.localStats()
	}
	return true
}

func (c *conn) dispatchResp(f *respFrame, raw []byte, ts int64) bool {
	switch f.op {
	case opNone:
		return true
	case opGet:
		return c.sendGets(raw, f.keys[:f.nkeys], f.mget, ts)
	case opSet, opDel, opIncr, opDecr:
		kb := raw[f.key[0]:f.key[1]]
		return c.sendOp(f.op, kb, f.val, false, false, ts)
	case opReply:
		return c.local(f.reply, f.fatal)
	case opStats:
		return c.localStats()
	}
	return true
}

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); ok {
				// A fast read hit the injected crash — a device load on
				// this goroutine touched the device the moment it died.
				// Fall like a shard pipeline does.
				c.srv.noteCrash()
				return
			}
			panic(r)
		}
	}()
	buf := make([]byte, readBuf)
	mc := c.srv.cfg.Proto == ProtoMemcache
	start, end := 0, 0
	for {
		for start < end {
			ts := c.srv.tr.Clock()
			var n int
			var cont bool
			var err error
			if mc {
				var f mcFrame
				f, n, err = parseMemcache(buf[start:end])
				if err == nil {
					cont = c.dispatchMc(&f, buf[start:start+n], ts)
				}
			} else {
				var f respFrame
				f, n, err = parseRESP(buf[start:end])
				if err == nil {
					cont = c.dispatchResp(&f, buf[start:start+n], ts)
				}
			}
			if err != nil {
				break // errNeedMore: refill
			}
			start += n
			if !cont {
				return
			}
		}
		if start > 0 {
			copy(buf, buf[start:end])
			end -= start
			start = 0
		}
		if it := c.srv.cfg.IdleTimeout; it > 0 && !c.srv.draining.Load() {
			c.nc.SetReadDeadline(time.Now().Add(it))
		}
		n, err := c.nc.Read(buf[end:])
		end += n
		c.srv.bytesIn.Add(uint64(n))
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.srv.idleClosed.Add(1)
			}
			// EOF, idle timeout, or a torn connection: emit a zero-length
			// fatal slot so the writer flushes everything pending, then
			// closes.
			c.local("", true)
			return
		}
	}
}

// ---- connection writer ----

func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.srv.dropConn(c)
	defer close(c.deadc)
	n := uint64(len(c.ring))
	inBatch := 0
	flush := func() bool {
		if len(c.wbuf) == 0 {
			return true
		}
		m, err := c.nc.Write(c.wbuf)
		if tr := c.srv.tr; tr != nil {
			tr.DevEmit(obs.KNetBatch, uint64(m), uint64(inBatch))
		}
		c.srv.batches.Add(1)
		c.srv.bytesOut.Add(uint64(m))
		c.wbuf = c.wbuf[:0]
		inBatch = 0
		return err == nil
	}
	for {
		select {
		case <-c.cmpl:
		case <-c.srv.stopc:
			flush()
			return
		}
		closing := false
		for {
			s := &c.ring[c.wseq%n]
			if !s.done.Load() {
				break
			}
			if s.big != nil {
				c.wbuf = append(c.wbuf, s.big...)
				s.big = nil
			} else {
				c.wbuf = append(c.wbuf, s.resp[:s.rlen]...)
			}
			inBatch++
			c.srv.reqs.Add(1)
			fatal := s.fatal
			s.done.Store(false)
			c.wseq++
			c.free <- struct{}{}
			if fatal {
				closing = true
				break
			}
			if len(c.wbuf) >= cap(c.wbuf)-respCap {
				if !flush() {
					return
				}
			}
		}
		if closing {
			flush()
			return
		}
		// Flush when the doorbell is quiet (no completion since this
		// pass began) — the adaptive batching rule: bytes pile up only
		// while the pipeline is actually producing.
		if len(c.cmpl) == 0 {
			if !flush() {
				return
			}
		}
	}
}
