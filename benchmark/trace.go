package main

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/server"
)

// The traced run records spans from outside the program: every recorder
// in this file is a decorator around a value the program already takes
// through an interface (net.Conn, server.Store, persist.Runtime and
// persist.Thread). Nothing under internal/ knows it is being timed.
//
// Spans live in preallocated rings, one per goroutine that owns the
// decorated value, so recording takes no lock and never allocates; a
// ring that wraps keeps the newest spans. They are joined into request
// trees only after the run (harvest.go).

var epoch = time.Now()

// now is the span clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// Request and store-op kinds.
const (
	kGet uint8 = iota
	kSet
	kDel
	kEnd // client only: the phase-end sentinel (memcache `version`)
	kIncr
	kGetFast
	kTouch
	kEvict
	// thread spans
	kLock
	kBoundary
	kUnlock
)

const (
	traceRing  = 1 << 19 // requests kept per connection
	threadRing = 1 << 19 // spans kept per thread
	fastRingN  = 1 << 19 // GetFast spans kept per shard
	shipRing   = 1 << 14 // unacked records tracked per shard
)

// tracer owns every recorder of one run.
type tracer struct {
	on atomic.Bool // recording; flipped only while no request is in flight

	mu      sync.Mutex
	conns   []*connTrace
	threads []*threadTrace
	fast    []*fastTrace
	ships   []*shipTrace
}

func newTracer() *tracer {
	tr := &tracer{}
	for i := 0; i < shards; i++ {
		tr.fast = append(tr.fast, &fastTrace{spans: make([]span, fastRingN)})
	}
	return tr
}

// reset clears every ring. Call only while the pipes are idle.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, c := range tr.conns {
		c.nIn.Store(0)
		c.nOut.Store(0)
		c.rcarry, c.wcarry = c.rcarry[:0], c.wcarry[:0]
		c.inData = false
	}
	for _, t := range tr.threads {
		t.n = 0
	}
	for _, f := range tr.fast {
		f.n.Store(0)
	}
	for _, s := range tr.ships {
		s.reset()
	}
}

// span is one recorded interval. key is the benchmark's key id for store
// ops, the region id for boundaries.
type span struct {
	kind  uint8
	key   uint32
	start int64
	dur   int64
}

// ---- persist.Runtime / persist.Thread ----

// tracedRuntime hands out threads that time Lock, Boundary and Unlock.
type tracedRuntime struct {
	persist.Runtime
	tr      *tracer
	standby bool
}

func (r *tracedRuntime) NewThread() (persist.Thread, error) {
	t, err := r.Runtime.NewThread()
	if err != nil {
		return nil, err
	}
	tt := &tracedThread{Thread: t, tr: r.tr}
	tt.rec = &threadTrace{standby: r.standby}
	r.tr.mu.Lock()
	r.tr.threads = append(r.tr.threads, tt.rec)
	r.tr.mu.Unlock()
	return tt, nil
}

// threadTrace is one thread's span ring; only the goroutine that owns
// the thread writes it. The ring is allocated at the first span: every
// restart makes new threads, and most never run while the recorders are
// on.
type threadTrace struct {
	standby bool
	spans   []span
	n       uint64
}

func (t *threadTrace) add(kind uint8, key uint32, start int64) {
	if t.spans == nil {
		t.spans = make([]span, threadRing)
	}
	t.spans[t.n&(threadRing-1)] = span{kind: kind, key: key, start: start, dur: now() - start}
	t.n++
}

type tracedThread struct {
	persist.Thread
	tr  *tracer
	rec *threadTrace
}

func (t *tracedThread) Lock(l *locks.Lock) {
	if !t.tr.on.Load() {
		t.Thread.Lock(l)
		return
	}
	t0 := now()
	t.Thread.Lock(l)
	t.rec.add(kLock, 0, t0)
}

func (t *tracedThread) Unlock(l *locks.Lock) {
	if !t.tr.on.Load() {
		t.Thread.Unlock(l)
		return
	}
	t0 := now()
	t.Thread.Unlock(l)
	t.rec.add(kUnlock, 0, t0)
}

func (t *tracedThread) Boundary(regionID uint64, outputs ...persist.RegVal) {
	if !t.tr.on.Load() {
		t.Thread.Boundary(regionID, outputs...)
		return
	}
	t0 := now()
	t.Thread.Boundary(regionID, outputs...)
	t.rec.add(kBoundary, uint32(regionID), t0)
}

// OutputScratch forwards the optional persist.OutputScratcher extension:
// without it persist.Outs would allocate a fresh slice on every FASE and
// the decorator would change what it measures.
func (t *tracedThread) OutputScratch() []persist.RegVal {
	if s, ok := t.Thread.(persist.OutputScratcher); ok {
		return s.OutputScratch()
	}
	return make([]persist.RegVal, 0, persist.MaxOutputs)
}

// ---- server.Store ----

// tracedStore times every store operation. Pipeline operations are
// recorded on the calling thread's ring, after the thread spans they
// contain; GetFast has no thread and goes to a per-shard ring.
type tracedStore struct {
	server.Store
	tr *tracer
}

// opRec returns the ring to record a pipeline op on, or nil when the op
// is not to be recorded (tracing off, or a thread the tracer did not
// hand out, as in the benchmark's own verification reads).
func (s *tracedStore) opRec(t persist.Thread) *threadTrace {
	if !s.tr.on.Load() {
		return nil
	}
	if tt, ok := t.(*tracedThread); ok {
		return tt.rec
	}
	return nil
}

func (s *tracedStore) Get(t persist.Thread, shard int, k0, k1 uint64) (uint64, bool) {
	rec := s.opRec(t)
	if rec == nil {
		return s.Store.Get(t, shard, k0, k1)
	}
	t0 := now()
	v, ok := s.Store.Get(t, shard, k0, k1)
	rec.add(kGet, keyOfWord(k0), t0)
	return v, ok
}

func (s *tracedStore) Set(t persist.Thread, shard int, k0, k1, val uint64) {
	rec := s.opRec(t)
	if rec == nil {
		s.Store.Set(t, shard, k0, k1, val)
		return
	}
	t0 := now()
	s.Store.Set(t, shard, k0, k1, val)
	rec.add(kSet, keyOfWord(k0), t0)
}

func (s *tracedStore) Del(t persist.Thread, shard int, k0, k1 uint64) bool {
	rec := s.opRec(t)
	if rec == nil {
		return s.Store.Del(t, shard, k0, k1)
	}
	t0 := now()
	ok := s.Store.Del(t, shard, k0, k1)
	rec.add(kDel, keyOfWord(k0), t0)
	return ok
}

func (s *tracedStore) Incr(t persist.Thread, shard int, k0, k1, delta uint64, dec bool) (uint64, bool) {
	rec := s.opRec(t)
	if rec == nil {
		return s.Store.Incr(t, shard, k0, k1, delta, dec)
	}
	t0 := now()
	v, ok := s.Store.Incr(t, shard, k0, k1, delta, dec)
	rec.add(kIncr, keyOfWord(k0), t0)
	return v, ok
}

func (s *tracedStore) Touch(t persist.Thread, shard int, k0, k1, gets, hits uint64) {
	rec := s.opRec(t)
	if rec == nil {
		s.Store.Touch(t, shard, k0, k1, gets, hits)
		return
	}
	t0 := now()
	s.Store.Touch(t, shard, k0, k1, gets, hits)
	rec.add(kTouch, keyOfWord(k0), t0)
}

func (s *tracedStore) EvictOne(t persist.Thread, shard int) bool {
	rec := s.opRec(t)
	if rec == nil {
		return s.Store.EvictOne(t, shard)
	}
	t0 := now()
	ok := s.Store.EvictOne(t, shard)
	rec.add(kEvict, 0, t0)
	return ok
}

// fastTrace is one shard's GetFast ring. Any connection's reader may
// call GetFast on any shard, so slots are claimed with a fetch-add.
type fastTrace struct {
	spans []span
	n     atomic.Uint64
}

func (s *tracedStore) GetFast(shard int, k0, k1 uint64) (uint64, bool, bool) {
	if !s.tr.on.Load() {
		return s.Store.GetFast(shard, k0, k1)
	}
	t0 := now()
	v, hit, ok := s.Store.GetFast(shard, k0, k1)
	f := s.tr.fast[shard&(len(s.tr.fast)-1)]
	i := f.n.Add(1) - 1
	f.spans[i&(fastRingN-1)] = span{kind: kGetFast, key: keyOfWord(k0), start: t0, dur: now() - t0}
	return v, hit, ok
}

// ---- net.Conn on the server end of a client pipe ----

// connTrace stamps each request when the server's Read returns its last
// byte and when the server hands its reply to Write. Replies leave in
// request order, so request n's two stamps share index n — the same n
// the client counts (client.go), which is what joins client and server
// spans of one request without any identifier on the wire.
type connTrace struct {
	net.Conn
	tr *tracer

	// Read side: the server's reader goroutine.
	nIn    atomic.Uint64 // requests fully received
	rcarry []byte        // partial command line from the previous Read
	inData bool          // next line is a set's data line
	arrive []int64
	key    []uint32
	kind   []uint8

	// Write side: the server's writer goroutine.
	nOut   atomic.Uint64 // replies handed to Write
	wcarry []byte
	leave  []int64
}

func (tr *tracer) wrapConn(nc net.Conn) net.Conn {
	c := &connTrace{
		Conn: nc, tr: tr,
		rcarry: make([]byte, 0, 128), wcarry: make([]byte, 0, 128),
		arrive: make([]int64, traceRing), key: make([]uint32, traceRing), kind: make([]uint8, traceRing),
		leave: make([]int64, traceRing),
	}
	tr.mu.Lock()
	tr.conns = append(tr.conns, c)
	tr.mu.Unlock()
	return c
}

func (c *connTrace) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.tr.on.Load() {
		c.scanRequests(b[:n], now())
	}
	return n, err
}

// scanRequests walks the request bytes a Read returned. A memcache set
// is a command line plus a data line; every other verb the benchmark's
// client sends is one line.
func (c *connTrace) scanRequests(b []byte, t int64) {
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			if !c.inData {
				c.rcarry = append(c.rcarry, b...)
			}
			return
		}
		line := b[:nl]
		b = b[nl+1:]
		if c.inData {
			c.inData = false
			c.received(t)
			continue
		}
		if len(c.rcarry) > 0 {
			c.rcarry = append(c.rcarry, line...)
			line = c.rcarry
		}
		kind, key, twoLines := classify(line)
		c.rcarry = c.rcarry[:0]
		i := c.nIn.Load() & (traceRing - 1)
		c.kind[i], c.key[i] = kind, key
		if twoLines {
			c.inData = true
			continue
		}
		c.received(t)
	}
}

func (c *connTrace) received(t int64) {
	n := c.nIn.Load()
	c.arrive[n&(traceRing-1)] = t
	c.nIn.Store(n + 1)
}

// classify reads the verb and key of one memcache command line.
func classify(line []byte) (kind uint8, key uint32, twoLines bool) {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return kEnd, 0, false // `version`
	}
	rest := line[sp+1:]
	if len(rest) >= 8 {
		key = parseKey(rest[:8])
	}
	switch line[0] {
	case 'g':
		return kGet, key, false
	case 's':
		return kSet, key, true
	default:
		return kDel, key, false
	}
}

func (c *connTrace) Write(b []byte) (int, error) {
	if c.tr.on.Load() {
		c.scanReplies(b, now())
	}
	return c.Conn.Write(b)
}

// scanReplies counts the replies in the bytes handed to Write. A get
// reply ends with its END line; every other reply is one line.
func (c *connTrace) scanReplies(b []byte, t int64) {
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			c.wcarry = append(c.wcarry, b...)
			return
		}
		line := b[:nl]
		b = b[nl+1:]
		if len(c.wcarry) > 0 {
			c.wcarry = append(c.wcarry, line...)
			line = c.wcarry
		}
		n := c.nOut.Load()
		if n >= c.nIn.Load() {
			c.wcarry = c.wcarry[:0]
			continue // a reply to nothing recorded (a canned error at connect)
		}
		done := true
		if c.kind[n&(traceRing-1)] == kGet {
			done = len(line) >= 3 && line[0] == 'E' && line[1] == 'N' && line[2] == 'D'
		}
		c.wcarry = c.wcarry[:0]
		if done {
			c.leave[n&(traceRing-1)] = t
			c.nOut.Store(n + 1)
		}
	}
}

// ---- net.Conn on the shipper end of the replication stream ----

// Frame layout of internal/replica's wire protocol (its package comment):
// RECORD 'R' shard u32, seq u64, op u8, k0 u64, k1 u64, val u64; ACK 'A'
// shard u32, recv u64, durable u64; HEART 'B'; HELLO 'H' magic u32,
// version u8, nshards u32, nshards x u64. All little-endian.
const (
	recFrame = 1 + 4 + 8 + 1 + 8 + 8 + 8
	ackFrame = 1 + 4 + 8 + 8
)

// shipTrace times RECORD written -> covering ACK read on the primary's
// end of the replication stream.
type shipTrace struct {
	net.Conn
	tr *tracer

	// Write side (the shipper's send loop) produces, read side (its ack
	// loop) consumes: one single-producer single-consumer ring per shard.
	pend   [shards]shipPend
	writes atomic.Uint64 // Write calls that carried records
	recs   atomic.Uint64 // records written

	// Read side only.
	frame   []byte // ACK or HELLO being assembled
	need    int
	rtt     *latRec
	shipped []shipSpan // completed record round trips, newest kept
	nShip   uint64
}

type shipPend struct {
	head, tail atomic.Uint64
	seq        [shipRing]uint64
	val        [shipRing]uint64
	at         [shipRing]int64
}

// shipSpan is one record's round trip, keyed by the value it carried
// (unique per request, which is how it finds its request).
type shipSpan struct {
	val        uint64
	start, end int64
}

func (tr *tracer) wrapShip(nc net.Conn) net.Conn {
	s := &shipTrace{Conn: nc, tr: tr, frame: make([]byte, 0, 128),
		rtt: newLatRec(traceRing), shipped: make([]shipSpan, traceRing)}
	tr.mu.Lock()
	tr.ships = append(tr.ships, s)
	tr.mu.Unlock()
	return s
}

func (s *shipTrace) reset() {
	for i := range s.pend {
		s.pend[i].head.Store(s.pend[i].tail.Load())
	}
	s.writes.Store(0)
	s.recs.Store(0)
	s.rtt.ns = s.rtt.ns[:0]
	s.nShip = 0
}

func (s *shipTrace) Write(b []byte) (int, error) {
	if s.tr.on.Load() && len(b) >= recFrame && b[0] == 'R' {
		t := now()
		n := 0
		for p := b; len(p) >= recFrame && p[0] == 'R'; p = p[recFrame:] {
			sh := binary.LittleEndian.Uint32(p[1:]) & (shards - 1)
			q := &s.pend[sh]
			tail := q.tail.Load()
			if tail-q.head.Load() < shipRing {
				i := tail & (shipRing - 1)
				q.seq[i] = binary.LittleEndian.Uint64(p[5:])
				q.val[i] = binary.LittleEndian.Uint64(p[30:])
				q.at[i] = t
				q.tail.Store(tail + 1)
			}
			n++
		}
		s.writes.Add(1)
		s.recs.Add(uint64(n))
	}
	return s.Conn.Write(b)
}

func (s *shipTrace) Read(b []byte) (int, error) {
	n, err := s.Conn.Read(b)
	if n > 0 {
		s.scanAcks(b[:n])
	}
	return n, err
}

// scanAcks reassembles the standby's frames from however the shipper's
// reads happened to split them. It runs with tracing off too, so the
// assembler never loses frame alignment.
func (s *shipTrace) scanAcks(b []byte) {
	for len(b) > 0 {
		if len(s.frame) == 0 {
			switch b[0] {
			case 'A':
				s.need = ackFrame
			case 'H':
				s.need = 1 + 4 + 1 + 4 // grows once nshards is known
			default:
				b = b[1:]
				continue
			}
		}
		take := s.need - len(s.frame)
		if take > len(b) {
			take = len(b)
		}
		s.frame = append(s.frame, b[:take]...)
		b = b[take:]
		if len(s.frame) < s.need {
			return
		}
		if s.frame[0] == 'H' && s.need == 10 {
			s.need += 8 * int(binary.LittleEndian.Uint32(s.frame[6:]))
			if s.need > 10 {
				continue
			}
		}
		if s.frame[0] == 'A' {
			s.acked(binary.LittleEndian.Uint32(s.frame[1:])&(shards-1),
				binary.LittleEndian.Uint64(s.frame[5:]))
		}
		s.frame = s.frame[:0]
	}
}

func (s *shipTrace) acked(shard uint32, recv uint64) {
	q := &s.pend[shard]
	head, tail := q.head.Load(), q.tail.Load()
	t := int64(0)
	for ; head < tail; head++ {
		i := head & (shipRing - 1)
		if q.seq[i] > recv {
			break
		}
		if s.tr.on.Load() {
			if t == 0 {
				t = now()
			}
			s.rtt.add(t - q.at[i])
			s.shipped[s.nShip&(traceRing-1)] = shipSpan{val: q.val[i], start: q.at[i], end: t}
			s.nShip++
		}
	}
	q.head.Store(head)
}
