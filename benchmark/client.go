package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/server"
)

// The benchmark's own memcache client. loadgen's reports latency as
// log2-bucket bounds and allocates per tracked mutation; this one records
// every latency exactly, checks every reply against a model of what it
// wrote, and allocates nothing per request: requests are encoded into a
// reused buffer, in-flight requests sit in a fixed ring, and the model is
// three flat arrays.
//
// Key spaces are connection-disjoint (key % conns == connection id) and
// every written value is valueOf(key, seq) with seq counting the
// mutations this client issued to that key, so a reply can be checked
// against exactly one expected value: the server promises
// read-your-writes per connection and nobody else writes these keys.

// valueOf is the value of key's seq-th mutation.
func valueOf(key, seq uint32) uint64 { return uint64(key)<<32 | uint64(seq) }

// appendKey is the wire form of a key id ("k" + 7 hex digits).
func appendKey(b []byte, key uint32) []byte { return loadgen.AppendKey(b, uint64(key)) }

// parseKey inverts appendKey on its 8 bytes; ^0 if they are not a key.
func parseKey(b []byte) uint32 {
	if len(b) != 8 || b[0] != 'k' {
		return ^uint32(0)
	}
	var k uint32
	for _, c := range b[1:] {
		switch {
		case c >= '0' && c <= '9':
			k = k<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			k = k<<4 | uint32(c-'a'+10)
		default:
			return ^uint32(0)
		}
	}
	return k
}

// keyWords is the store's encoding of a key id (server.McKeyWords of its
// wire form; eight bytes, so it fits the first word).
func keyWords(key uint32) (k0, k1 uint64) {
	var b [8]byte
	k0, k1, _ = server.McKeyWords(appendKey(b[:0], key))
	return k0, k1
}

// keyOfWord inverts keyWords.
func keyOfWord(k0 uint64) uint32 {
	var b [8]byte
	for i := range b {
		b[i] = byte(k0 >> (8 * uint(i)))
	}
	return parseKey(b[:])
}

// pend is one in-flight request.
type pend struct {
	kind uint8
	had  bool   // delete: the model held the key when it was issued
	key  uint32 // key id
	// exp is the model's state of the key after this request: 0 absent,
	// otherwise the seq whose value it holds. A get expects exactly that.
	exp uint32
	at  int64 // when the request was due (open loop) or issued (closed loop)
}

const pendRing = 4096

// phaseStats is what one connection measured in one phase.
type phaseStats struct {
	sent, completed uint64
	errReplies      uint64 // error or unparseable replies
	wrong           uint64 // replies that contradict the model
	slow            uint64 // replies later than the time-out
	refused         uint64 // open loop: no in-flight slot was free when due
	firstErr        string
	start, end      int64
}

func (p *phaseStats) failed() uint64 { return p.errReplies + p.wrong + p.slow + p.refused }

func (p *phaseStats) add(o *phaseStats) {
	p.sent += o.sent
	p.completed += o.completed
	p.errReplies += o.errReplies
	p.wrong += o.wrong
	p.slow += o.slow
	p.refused += o.refused
	if p.firstErr == "" {
		p.firstErr = o.firstErr
	}
	if p.start == 0 || (o.start != 0 && o.start < p.start) {
		p.start = o.start
	}
	if o.end > p.end {
		p.end = o.end
	}
}

// client is one connection's generator, model and checker. The writer
// goroutine owns rng, seq, exp and the encode buffer; the reader owns ack
// and the statistics; they share the pending ring and the window.
type client struct {
	id   int
	wl   *workload
	nc   net.Conn
	rng  *rand.Rand
	zipf *rand.Zipf
	n    uint32 // keys this connection owns

	// The model, indexed by local key (key id / conns).
	seq []uint32 // mutations issued so far
	exp []uint32 // state after every issued mutation (0 absent, else seq)
	ack []uint32 // state after every acknowledged mutation

	ring       [pendRing]pend
	head, tail atomic.Uint64 // reader pops head, writer pushes tail
	window     chan struct{} // closed loop: one token per in-flight request
	dead       chan struct{} // closed by the reader when the transport dies
	wbuf       []byte
	rbuf       []byte

	st  phaseStats
	lat *latRec // non-nil while latencies are recorded
	lag *latRec // open loop: how late each burst was sent

	// touched lists the local keys mutated since the last verification,
	// while track is set (the crash cycles).
	track   bool
	touched []uint32

	// Traced run: request n's client-side stamps, index n & (traceRing-1).
	// n restarts at every phase, in step with connTrace's count.
	tr      *tracer
	trStart []int64
	trEnd   []int64
	trKey   []uint32
	trExp   []uint32
	trKind  []uint8
	trN     uint64 // requests issued this phase (writer)
	trDone  uint64 // requests completed this phase (reader)
}

func newClient(id int, wl *workload, seed int64, tr *tracer) *client {
	c := &client{
		id: id, wl: wl, tr: tr,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(id)*104729 + 1)),
		n:       wl.keys / conns,
		window:  make(chan struct{}, pipeline),
		wbuf:    make([]byte, 0, 16<<10),
		rbuf:    make([]byte, 64<<10),
		touched: make([]uint32, 0, 1<<12),
	}
	c.seq = make([]uint32, c.n)
	c.exp = make([]uint32, c.n)
	c.ack = make([]uint32, c.n)
	for i := uint32(0); i < wl.prefill/conns; i++ {
		c.seq[i], c.exp[i], c.ack[i] = 1, 1, 1
	}
	if wl.zipf > 1 {
		c.zipf = rand.NewZipf(c.rng, wl.zipf, 1, uint64(c.n-1))
	}
	if tr != nil {
		c.trStart = make([]int64, traceRing)
		c.trEnd = make([]int64, traceRing)
		c.trKey = make([]uint32, traceRing)
		c.trExp = make([]uint32, traceRing)
		c.trKind = make([]uint8, traceRing)
	}
	return c
}

// keyID is the key id of this connection's local key i.
func (c *client) keyID(i uint32) uint32 { return i*conns + uint32(c.id) }

// attach points the client at a fresh connection (first use, or after a
// restart) with nothing in flight.
func (c *client) attach(nc net.Conn) {
	c.nc = nc
	c.head.Store(0)
	c.tail.Store(0)
	for len(c.window) > 0 {
		<-c.window
	}
	c.dead = make(chan struct{})
}

// next draws the next request from the workload's mix and updates the
// issued half of the model.
func (c *client) next(at int64) pend {
	var i uint32
	if c.zipf != nil {
		i = uint32(c.zipf.Uint64()) // rank 0 is the hottest and is prefilled first
	} else {
		i = uint32(c.rng.Int63n(int64(c.n)))
	}
	p := pend{key: c.keyID(i), at: at}
	roll := c.rng.Intn(100)
	switch {
	case roll < c.wl.setPct:
		c.seq[i]++
		c.exp[i] = c.seq[i]
		p.kind, p.exp = kSet, c.seq[i]
		c.touch(i)
	case roll < c.wl.setPct+c.wl.delPct:
		p.kind, p.had = kDel, c.exp[i] != 0
		c.seq[i]++
		c.exp[i] = 0
		c.touch(i)
	default:
		p.kind, p.exp = kGet, c.exp[i]
	}
	return p
}

func (c *client) touch(i uint32) {
	if c.track {
		c.touched = append(c.touched, i)
	}
}

// push encodes p into the write buffer and enters it in the ring.
func (c *client) push(p pend) {
	b := c.wbuf
	switch p.kind {
	case kGet:
		b = append(b, "get "...)
		b = appendKey(b, p.key)
	case kSet:
		var dig [20]byte
		d := strconv.AppendUint(dig[:0], valueOf(p.key, p.exp), 10)
		b = append(b, "set "...)
		b = appendKey(b, p.key)
		b = append(b, " 0 0 "...)
		b = strconv.AppendUint(b, uint64(len(d)), 10)
		b = append(b, '\r', '\n')
		b = append(b, d...)
	case kDel:
		b = append(b, "delete "...)
		b = appendKey(b, p.key)
	case kEnd:
		b = append(b, "version"...)
	}
	c.wbuf = append(b, '\r', '\n')
	t := c.tail.Load()
	c.ring[t&(pendRing-1)] = p
	c.tail.Store(t + 1)
	if p.kind == kEnd {
		return
	}
	c.st.sent++
	if c.tr != nil {
		i := c.trN & (traceRing - 1)
		c.trStart[i], c.trKey[i], c.trExp[i], c.trKind[i] = p.at, p.key, p.exp, p.kind
		c.trN++
	}
}

func (c *client) flush() bool {
	if len(c.wbuf) == 0 {
		return true
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err == nil
}

// finish ends a phase: the sentinel's reply tells the reader that every
// earlier reply has been consumed.
func (c *client) finish() {
	c.push(pend{kind: kEnd})
	c.flush()
}

// writeClosed is the closed-loop generator: at most `pipeline` requests
// in flight; the next is issued when a reply frees a slot. It runs until
// stop is set or the transport dies.
func (c *client) writeClosed(stop *atomic.Bool) {
	defer c.finish()
	for !stop.Load() {
		select {
		case c.window <- struct{}{}:
		default:
			// Window full: the server must see everything we wait on.
			if !c.flush() {
				return
			}
			select {
			case c.window <- struct{}{}:
			case <-c.dead:
				return
			}
		}
		c.push(c.next(now()))
	}
}

// writeOpen is the open-loop generator: every burstEvery it sends the
// requests that became due, whether or not earlier ones were answered.
// Each request's latency runs from the burst's due instant, so a late
// generator or a backlog counts against the system, not for it.
func (c *client) writeOpen(rate int, d time.Duration) {
	defer c.finish()
	bursts := int(d / burstEvery)
	perSec := float64(rate) / conns
	tk, err := newTicker(burstEvery)
	if err != nil {
		c.fail(err.Error())
		return
	}
	defer tk.stop()
	start := now()
	sentSoFar := 0
	for i := 0; i < bursts; {
		// Every burst that is due by now goes out, each stamped with its
		// own due instant.
		tk.wait()
		t := now()
		for ; i < bursts; i++ {
			due := start + int64(i+1)*int64(burstEvery)
			if due > t {
				break
			}
			c.lag.add(t - due)
			// Requests due by the end of burst i, at the exact fractional rate.
			want := int(perSec * float64(i+1) * burstEvery.Seconds())
			for ; sentSoFar < want; sentSoFar++ {
				if c.tail.Load()-c.head.Load() >= pendRing-1 {
					c.st.refused++
					continue
				}
				c.push(c.next(due))
			}
		}
		if !c.flush() {
			return
		}
	}
}

// read consumes replies until the phase's sentinel or a transport error.
// closed says whether replies return window tokens.
func (c *client) read(closed bool) {
	start, end := 0, 0
	for {
		// Parse every complete reply in the buffer.
		t := now()
		for start < end {
			h := c.head.Load()
			if h == c.tail.Load() {
				c.fail("reply with nothing in flight")
				start = end
				break
			}
			p := &c.ring[h&(pendRing-1)]
			used, r := parseReply(c.rbuf[start:end], p.kind)
			if used == 0 {
				break
			}
			start += used
			c.head.Store(h + 1)
			if p.kind == kEnd {
				c.st.end = t
				return
			}
			c.check(p, &r, t)
			if closed {
				<-c.window
			}
		}
		if start == end {
			start, end = 0, 0
		} else if start > 0 {
			end = copy(c.rbuf, c.rbuf[start:end])
			start = 0
		}
		n, err := c.nc.Read(c.rbuf[end:])
		end += n
		if err != nil {
			c.st.end = now()
			close(c.dead)
			return
		}
	}
}

func (c *client) fail(msg string) {
	c.st.errReplies++
	if c.st.firstErr == "" {
		c.st.firstErr = msg
	}
}

// reply is one parsed response.
type reply struct {
	status uint8 // one of the r* constants
	key    uint32
	val    uint64
}

const (
	rBad uint8 = iota
	rStored
	rDeleted
	rNotFound
	rHit
	rMiss
	rVersion
)

// parseReply parses one whole response to a request of the given kind
// from the head of b. used == 0 means b holds only a prefix of it.
func parseReply(b []byte, kind uint8) (used int, r reply) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return 0, r
	}
	line := b[:nl]
	if nl > 0 && line[nl-1] == '\r' {
		line = line[:nl-1]
	}
	if kind != kGet {
		switch {
		case bytes.Equal(line, []byte("STORED")):
			r.status = rStored
		case bytes.Equal(line, []byte("DELETED")):
			r.status = rDeleted
		case bytes.Equal(line, []byte("NOT_FOUND")):
			r.status = rNotFound
		case bytes.HasPrefix(line, []byte("VERSION")):
			r.status = rVersion
		}
		return nl + 1, r
	}
	if bytes.Equal(line, []byte("END")) {
		r.status = rMiss
		return nl + 1, r
	}
	if !bytes.HasPrefix(line, []byte("VALUE ")) || len(line) < 14 {
		return nl + 1, r // an error line: one line long
	}
	// VALUE <key> 0 <bytes>\r\n<data>\r\nEND\r\n
	rest := b[nl+1:]
	dl := bytes.IndexByte(rest, '\n')
	if dl < 0 {
		return 0, r
	}
	el := bytes.IndexByte(rest[dl+1:], '\n')
	if el < 0 {
		return 0, r
	}
	used = nl + 1 + dl + 1 + el + 1
	v, ok := parseUint(bytes.TrimRight(rest[:dl], "\r"))
	if !ok || !bytes.HasPrefix(rest[dl+1:], []byte("END")) {
		return used, r
	}
	r.status, r.key, r.val = rHit, parseKey(line[6:14]), v
	return used, r
}

// parseUint parses ASCII decimal without allocating.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// check holds one reply against the model and records its latency.
func (c *client) check(p *pend, r *reply, t int64) {
	c.st.completed++
	i := p.key / conns
	ok := true
	switch p.kind {
	case kSet:
		ok = r.status == rStored
		c.ack[i] = p.exp
	case kDel:
		// With an eviction watermark the store may have dropped the key.
		ok = r.status == rDeleted && (p.had || c.wl.maxItems > 0) ||
			r.status == rNotFound && (!p.had || c.wl.maxItems > 0)
		c.ack[i] = 0
	case kGet:
		switch r.status {
		case rHit:
			ok = p.exp != 0 && r.key == p.key && r.val == valueOf(p.key, p.exp)
		case rMiss:
			ok = p.exp == 0 || c.wl.maxItems > 0
		default:
			ok = false
		}
	}
	switch {
	case r.status == rBad:
		c.fail(fmt.Sprintf("conn %d: error reply to kind %d key %d", c.id, p.kind, p.key))
	case !ok:
		c.st.wrong++
		if c.st.firstErr == "" {
			c.st.firstErr = fmt.Sprintf("conn %d: kind %d key %d: reply status %d key %d value %d, model expects state %d",
				c.id, p.kind, p.key, r.status, r.key, r.val, p.exp)
		}
	}
	d := t - p.at
	if d > timeoutNS {
		c.st.slow++
	}
	if c.lat != nil {
		c.lat.add(d)
	}
	if c.tr != nil {
		c.trEnd[c.trDone&(traceRing-1)] = t
		c.trDone++
	}
}

// phase describes one stretch of traffic.
type phase struct {
	d      time.Duration
	rate   int             // 0: closed loop; otherwise open loop at this aggregate req/s
	record int             // latencies to keep per connection (0: none)
	until  <-chan struct{} // closed loop: also ends when this closes (a crash)
}

// runPhase drives one phase on every client and returns the merged
// statistics.
func runPhase(cs []*client, ph phase) phaseStats {
	d, rate, until := ph.d, ph.rate, ph.until
	var stop atomic.Bool
	done := make(chan struct{}, 2*len(cs))
	for _, c := range cs {
		c.st = phaseStats{start: now()}
		c.trN, c.trDone = 0, 0
		c.lat, c.lag = nil, nil
		if ph.record > 0 {
			c.lat, c.lag = newLatRec(ph.record), newLatRec(int(d/burstEvery)+16)
		}
		c := c
		go func() {
			c.read(rate == 0)
			done <- struct{}{}
		}()
		go func() {
			if rate == 0 {
				c.writeClosed(&stop)
			} else {
				c.writeOpen(rate, d)
			}
			done <- struct{}{}
		}()
	}
	if rate == 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-until:
			timer.Stop()
		}
		stop.Store(true)
	}
	for i := 0; i < 2*len(cs); i++ {
		<-done
	}
	var total phaseStats
	for _, c := range cs {
		total.add(&c.st)
	}
	return total
}
