package main

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/persist"
)

func quickDirect(trace bool) runOpts {
	return runOpts{wl: findWorkload("fase-direct"), seed: 1, sc: quickScale(), trace: trace}
}

// TestSpansNestInsideTheirStoreOp drives traced store calls and checks
// the thread ring: every op's record follows its lock, boundaries and
// unlock, all inside the op's interval, and they cover less than all of
// it (the rest is the FASE's own loads and stores).
func TestSpansNestInsideTheirStoreOp(t *testing.T) {
	d, err := buildDirect(quickDirect(true))
	if err != nil {
		t.Fatal(err)
	}
	tr := d.n.tr
	tr.reset()
	tr.on.Store(true)
	const ops = 200
	for i := 0; i < ops; i++ {
		key, set := d.draw(50)
		if !d.apply(key, set) {
			t.Fatalf("op %d on key %d returned a wrong value", i, key)
		}
	}
	tr.on.Store(false)
	rec := d.th.(*tracedThread).rec
	var children []span
	seen := 0
	for n := uint64(0); n < rec.n; n++ {
		sp := rec.spans[n]
		if sp.kind >= kLock {
			children = append(children, sp)
			continue
		}
		seen++
		if len(children) < 3 || children[0].kind != kLock || children[len(children)-1].kind != kUnlock {
			t.Fatalf("op %d: children %v, want lock, boundaries, unlock", seen, children)
		}
		var inside int64
		for _, ch := range children[1 : len(children)-1] {
			if ch.kind != kBoundary {
				t.Fatalf("op %d: span of kind %d between lock and unlock", seen, ch.kind)
			}
		}
		for _, ch := range children {
			if ch.start < sp.start || ch.start+ch.dur > sp.start+sp.dur {
				t.Fatalf("op %d: child [%d,+%d] outside op [%d,+%d]", seen, ch.start, ch.dur, sp.start, sp.dur)
			}
			inside += ch.dur
		}
		if inside >= sp.dur {
			t.Fatalf("op %d: children take %d ns of a %d ns op", seen, inside, sp.dur)
		}
		if sp.key == ^uint32(0) {
			t.Fatalf("op %d: key word did not decode", seen)
		}
		children = children[:0]
	}
	if seen != ops {
		t.Fatalf("ring holds %d store ops, want %d", seen, ops)
	}
}

// TestOutputScratchPassesThrough: persist.Outs must find the runtime's
// reusable buffer through the decorator, or every traced FASE would
// allocate and the traced run would measure a different program.
func TestOutputScratchPassesThrough(t *testing.T) {
	d, err := buildDirect(quickDirect(true))
	if err != nil {
		t.Fatal(err)
	}
	tt := d.th.(*tracedThread)
	inner, ok := tt.Thread.(persist.OutputScratcher)
	if !ok {
		t.Skip("the runtime offers no scratch buffer")
	}
	got := append(persist.Outs(tt), persist.RV(1, 1))
	want := append(inner.OutputScratch(), persist.RV(2, 2))
	if &got[0] != &want[0] {
		t.Fatal("persist.Outs on the decorated thread did not return the runtime's own buffer")
	}
	k0, k1 := keyWords(3)
	if n := testing.AllocsPerRun(50, func() { d.n.store.Set(tt, 0, k0, k1, 9) }); n != 0 {
		t.Fatalf("a decorated Set allocates %v times", n)
	}
}

// TestDecoratorsChangeNoCounts runs the same op stream bare and decorated:
// every device and runtime count must be equal, or the traced run's layer
// budget would describe a program nobody ships.
func TestDecoratorsChangeNoCounts(t *testing.T) {
	type counts struct {
		loads, stores, nts, flushes, fences uint64
		fases, regions, logged, bytes       uint64
	}
	run := func(trace bool) counts {
		d, err := buildDirect(quickDirect(trace))
		if err != nil {
			t.Fatal(err)
		}
		if trace {
			d.n.tr.on.Store(true)
		}
		res := newResult()
		d.timed(5000, 50, newLatRec(5000), res)
		if res.failed != 0 {
			t.Fatalf("trace=%v: %v", trace, res.errs)
		}
		ds, rs := d.n.reg.Dev.Stats(), d.n.rt.Stats()
		return counts{ds.Loads, ds.Stores, ds.NTStores, ds.Flushes, ds.Fences,
			rs.FASEs, rs.Regions, rs.LoggedEntries, rs.LoggedBytes}
	}
	if bare, traced := run(false), run(true); bare != traced {
		t.Fatalf("counts differ:\n bare   %+v\n traced %+v", bare, traced)
	}
}

// pipeEnd is a net.Conn over an io.Pipe pair, enough for the conn
// decorators.
type pipeEnd struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (p pipeEnd) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p pipeEnd) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestConnTraceCountsRequestsAcrossSplits feeds the server-end decorator a
// request stream cut at awkward places and replies in two writes.
func TestConnTraceCountsRequestsAcrossSplits(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	reqR, reqW := io.Pipe()
	c := tr.wrapConn(pipeEnd{r: reqR, w: io.Discard}).(*connTrace)
	stream := "get k0000004\r\nset k0000006 0 0 2\r\n42\r\ndelete k000000a\r\nversion\r\n"
	go func() {
		prev := 0
		for _, cut := range []int{3, 17, 30, 33, 36, 50, len(stream)} {
			reqW.Write([]byte(stream[prev:cut]))
			prev = cut
		}
		reqW.Close()
	}()
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			break
		}
	}
	if n := c.nIn.Load(); n != 4 {
		t.Fatalf("counted %d requests, want 4", n)
	}
	wantKind := []uint8{kGet, kSet, kDel, kEnd}
	wantKey := []uint32{4, 6, 10, 0}
	for i := range wantKind {
		if c.kind[i] != wantKind[i] || c.key[i] != wantKey[i] || c.arrive[i] == 0 {
			t.Errorf("request %d: kind %d key %d arrive %d", i, c.kind[i], c.key[i], c.arrive[i])
		}
	}
	c.Write([]byte("VALUE k0000004 0 1\r\n7\r\nEND\r\nSTORED\r\n"))
	if n := c.nOut.Load(); n != 2 {
		t.Fatalf("after the first write %d replies counted, want 2", n)
	}
	c.Write([]byte("DELETED\r\nVERSION ido/1.0\r\n"))
	if n := c.nOut.Load(); n != 4 {
		t.Fatalf("after the second write %d replies counted, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if c.leave[i] < c.arrive[i] {
			t.Errorf("request %d left (%d) before it arrived (%d)", i, c.leave[i], c.arrive[i])
		}
	}
}

// TestShipTraceTimesRecordsToAcks writes two records, then feeds the
// covering ACK (behind a HELLO) one byte at a time, as the shipper's
// io.ReadFull calls may.
func TestShipTraceTimesRecordsToAcks(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	ackR, ackW := io.Pipe()
	s := tr.wrapShip(pipeEnd{r: ackR, w: io.Discard}).(*shipTrace)
	record := func(shard uint32, seq, val uint64) []byte {
		b := make([]byte, recFrame)
		b[0] = 'R'
		binary.LittleEndian.PutUint32(b[1:], shard)
		binary.LittleEndian.PutUint64(b[5:], seq)
		binary.LittleEndian.PutUint64(b[30:], val)
		return b
	}
	s.Write(append(record(2, 1, valueOf(5, 9)), record(2, 2, valueOf(7, 3))...))
	s.Write([]byte{'B'}) // a heartbeat is not a record
	if s.recs.Load() != 2 || s.writes.Load() != 1 {
		t.Fatalf("counted %d records in %d writes", s.recs.Load(), s.writes.Load())
	}
	time.Sleep(time.Millisecond)
	hello := make([]byte, 10+8*shards)
	hello[0] = 'H'
	binary.LittleEndian.PutUint32(hello[6:], shards)
	ack := make([]byte, ackFrame)
	ack[0] = 'A'
	binary.LittleEndian.PutUint32(ack[1:], 2)
	binary.LittleEndian.PutUint64(ack[5:], 2) // receipt covers both
	go func() {
		for _, b := range append(hello, ack...) {
			ackW.Write([]byte{b})
		}
		ackW.Close()
	}()
	one := make([]byte, 1)
	for {
		if _, err := s.Read(one); err != nil {
			break
		}
	}
	if len(s.rtt.ns) != 2 || s.nShip != 2 {
		t.Fatalf("%d round trips timed, %d ship spans; want 2 and 2", len(s.rtt.ns), s.nShip)
	}
	if s.rtt.ns[0] < 1e6 {
		t.Errorf("round trip %d ns, want at least the millisecond slept", s.rtt.ns[0])
	}
	if s.shipped[0].val != valueOf(5, 9) || s.shipped[1].val != valueOf(7, 3) {
		t.Errorf("ship spans carry values %d, %d", s.shipped[0].val, s.shipped[1].val)
	}
}
