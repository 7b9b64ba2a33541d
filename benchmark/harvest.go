package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// harvest turns the recorders' rings into the timing half of the layer
// metrics and the Chrome trace file. It runs after the traced phase, with
// the recorders off, and joins spans into request trees:
//
//	client.request ⊃ conn.c2s, server.resident ⊃ (store.op ⊃ thread.lock,
//	thread.boundary, thread.unlock), replica.ship, conn.s2c
//
// client and connection spans share the request's index n (both ends
// count requests in order); a store span finds its request by key (key
// spaces are connection-disjoint) and containment in the resident
// interval; a ship span by the unique value its record carried.

// traceFileRequests is how many requests per connection (the newest) the
// Chrome trace file holds; the metrics use every span kept.
const traceFileRequests = 5000

// event is one Chrome trace_event "X" record.
type event struct {
	name       string
	tid        int
	start, dur int64
	req        string
}

// nsSamples are span durations awaiting their quantiles.
type nsSamples []int64

// median and p99 in nanoseconds (0 when empty).
func (s nsSamples) quantiles() (p50, p99 float64) {
	r := newLatRec(len(s))
	for _, v := range s {
		r.add(v)
	}
	d := mergeDist(r)
	return d.quantile(0.5), d.quantile(0.99)
}

func harvest(tr *tracer, cs []*client, res *result, o runOpts) {
	m := res.metrics
	var events []event

	// Per connection: the kept request range and a key index into it.
	type connJoin struct {
		lo, hi  uint64              // request indices kept by every ring
		byKey   map[uint32][]uint64 // requests per key, ascending
		storeNS []int64             // per request (index n-lo): store.op time inside it
		shipNS  []int64             // per request: replica.ship time
	}
	joins := make([]*connJoin, len(cs))
	var request, c2s, resident, s2c nsSamples
	for i, c := range cs {
		ct := tr.conns[i]
		// Both ends may have counted past hi (requests in flight, the
		// phase-end sentinel), so once the rings have wrapped the oldest
		// pendRing slots are no longer request hi-traceRing's.
		j := &connJoin{hi: min(c.trDone, ct.nOut.Load()), byKey: map[uint32][]uint64{}}
		if j.hi > traceRing-pendRing {
			j.lo = j.hi - (traceRing - pendRing)
		}
		j.storeNS, j.shipNS = make([]int64, j.hi-j.lo), make([]int64, j.hi-j.lo)
		for n := j.lo; n < j.hi; n++ {
			k := n & (traceRing - 1)
			if c.trKind[k] != ct.kind[k] || c.trKey[k] != ct.key[k] {
				res.fail("trace: connection %d request %d is (kind %d key %d) at the client and (kind %d key %d) at the server",
					i, n, c.trKind[k], c.trKey[k], ct.kind[k], ct.key[k])
				break
			}
			j.byKey[c.trKey[k]] = append(j.byKey[c.trKey[k]], n)
			request = append(request, c.trEnd[k]-c.trStart[k])
			c2s = append(c2s, ct.arrive[k]-c.trStart[k])
			resident = append(resident, ct.leave[k]-ct.arrive[k])
			s2c = append(s2c, c.trEnd[k]-ct.leave[k])
			if n+traceFileRequests >= j.hi {
				req := fmt.Sprintf("c%d/%d", i, n)
				events = append(events,
					event{"client.request", 10 + i, c.trStart[k], c.trEnd[k] - c.trStart[k], req},
					event{"conn.c2s", 20 + i, c.trStart[k], ct.arrive[k] - c.trStart[k], req},
					event{"server.resident", 30 + i, ct.arrive[k], ct.leave[k] - ct.arrive[k], req},
					event{"conn.s2c", 20 + i, ct.leave[k], c.trEnd[k] - ct.leave[k], req})
			}
		}
		joins[i] = j
	}

	// owner finds the request a store span belongs to: same key, same
	// verb, resident interval containing the span; the newest such.
	owner := func(sp *span) (*connJoin, int, uint64, bool) {
		if len(cs) == 0 || sp.key == ^uint32(0) {
			return nil, 0, 0, false
		}
		i := int(sp.key % conns)
		j, c, ct := joins[i], cs[i], tr.conns[i]
		cand := j.byKey[sp.key]
		at := sort.Search(len(cand), func(x int) bool { return ct.arrive[cand[x]&(traceRing-1)] > sp.start })
		want := sp.kind
		if want == kGetFast {
			want = kGet
		}
		for x := at - 1; x >= 0 && x >= at-pendRing; x-- {
			k := cand[x] & (traceRing - 1)
			if c.trKind[k] == want && ct.leave[k] >= sp.start+sp.dur {
				return j, i, cand[x], true
			}
		}
		return nil, 0, 0, false
	}

	// emitOp puts a store op and the thread spans inside it in the file.
	emitOp := func(tid int, req string, op span, children []span) {
		events = append(events, event{"store.op", tid, op.start, op.dur, req})
		for _, ch := range children {
			events = append(events, event{threadSpanName(ch.kind), tid, ch.start, ch.dur, req})
		}
	}

	// Thread rings: a store op's record follows the thread spans it
	// contains.
	ops := map[uint8]nsSamples{}
	var lock, boundary, unlock, faseSelf, standbyApply nsSamples
	for ti, t := range tr.threads {
		lo := uint64(0)
		if t.n > threadRing {
			lo = t.n - threadRing
		}
		var children []span
		seenOp := lo == 0 // after a wrap the oldest spans may be orphans
		for n := lo; n < t.n; n++ {
			sp := t.spans[n&(threadRing-1)]
			if sp.kind >= kLock {
				if seenOp {
					children = append(children, sp)
				}
				continue
			}
			if !seenOp {
				seenOp = true
				children = children[:0]
				continue
			}
			var inside int64
			for _, ch := range children {
				inside += ch.dur
				if t.standby {
					continue
				}
				switch ch.kind {
				case kLock:
					lock = append(lock, ch.dur)
				case kBoundary:
					boundary = append(boundary, ch.dur)
				case kUnlock:
					unlock = append(unlock, ch.dur)
				}
			}
			if t.standby {
				standbyApply = append(standbyApply, sp.dur)
				children = children[:0]
				continue
			}
			ops[sp.kind] = append(ops[sp.kind], sp.dur)
			faseSelf = append(faseSelf, sp.dur-inside)
			if len(cs) == 0 && n+8*traceFileRequests >= t.n {
				// fase-direct: no requests; the file holds the newest ops.
				emitOp(100+ti, fmt.Sprintf("op/%d", n), sp, children)
			}
			if j, i, n, ok := owner(&sp); ok {
				j.storeNS[n-j.lo] += sp.dur
				if n+traceFileRequests >= j.hi {
					emitOp(100+ti, fmt.Sprintf("c%d/%d", i, n), sp, children)
				}
			}
			children = children[:0]
		}
	}
	var fast nsSamples
	for si, f := range tr.fast {
		n := f.n.Load()
		lo := uint64(0)
		if n > fastRingN {
			lo = n - fastRingN
		}
		for ; lo < n; lo++ {
			sp := f.spans[lo&(fastRingN-1)]
			fast = append(fast, sp.dur)
			if j, i, n, ok := owner(&sp); ok {
				j.storeNS[n-j.lo] += sp.dur
				if n+traceFileRequests >= j.hi {
					emitOp(40+si, fmt.Sprintf("c%d/%d", i, n), sp, nil)
				}
			}
		}
	}

	// Ship spans: the record's value names the key and the mutation.
	var rtt []*latRec
	var shipWrites, shipRecs uint64
	for _, s := range tr.ships {
		rtt = append(rtt, s.rtt)
		shipWrites += s.writes.Load()
		shipRecs += s.recs.Load()
		lo := uint64(0)
		if s.nShip > traceRing {
			lo = s.nShip - traceRing
		}
		for ; lo < s.nShip; lo++ {
			sh := s.shipped[lo&(traceRing-1)]
			key, seq := uint32(sh.val>>32), uint32(sh.val)
			i := int(key % conns)
			if i >= len(cs) {
				continue
			}
			j, c := joins[i], cs[i]
			for _, n := range j.byKey[key] {
				k := n & (traceRing - 1)
				if c.trKind[k] == kSet && c.trExp[k] == seq {
					j.shipNS[n-j.lo] = sh.end - sh.start
					if n+traceFileRequests >= j.hi {
						events = append(events, event{"replica.ship", 50, sh.start, sh.end - sh.start, fmt.Sprintf("c%d/%d", i, n)})
					}
					break
				}
			}
		}
	}

	// Self time of the server: what is left of the resident interval once
	// the store op and the replication round trip are taken out.
	var self nsSamples
	for i, j := range joins {
		ct := tr.conns[i]
		for n := j.lo; n < j.hi; n++ {
			if st := j.storeNS[n-j.lo]; st > 0 {
				k := n & (traceRing - 1)
				self = append(self, ct.leave[k]-ct.arrive[k]-st-j.shipNS[n-j.lo])
			}
		}
	}

	if len(cs) > 0 {
		res50, res99 := resident.quantiles()
		self50, _ := self.quantiles()
		m["server.resident_p50_us"], m["server.resident_p99_us"] = res50/1e3, res99/1e3
		m["server.self_p50_us"] = self50 / 1e3
		res.samples["server.resident_p50_us"], res.samples["server.resident_p99_us"] = len(resident), len(resident)
		res.samples["server.self_p50_us"] = len(self)
		in50, _ := c2s.quantiles()
		out50, _ := s2c.quantiles()
		whole, _ := request.quantiles()
		parts := in50 + res50 + out50
		res.notes = append(res.notes, fmt.Sprintf(
			"trace: medians conn.c2s %.1f + server.resident %.1f + conn.s2c %.1f = %.1f us; client.request %.1f us (%.1f%% apart, %d requests)",
			in50/1e3, res50/1e3, out50/1e3, parts/1e3, whole/1e3, 100*(parts-whole)/whole, len(request)))
	}
	perCallNS := map[string]nsSamples{
		"kv.mc_set_ns": ops[kSet], "kv.mc_get_ns": ops[kGet], "kv.mc_del_ns": ops[kDel],
		"kv.mc_touch_ns": ops[kTouch], "kv.mc_evict_ns": ops[kEvict], "kv.mc_getfast_ns": fast,
		"core.lock_ns": lock, "core.boundary_ns": boundary, "core.unlock_ns": unlock,
		"core.fase_self_ns": faseSelf, "replica.standby_apply_ns": standbyApply,
	}
	for name, s := range perCallNS {
		if len(s) > 0 {
			m[name], _ = s.quantiles()
			res.samples[name] = len(s)
		}
	}
	if rd := mergeDist(rtt...); len(rd) > 0 {
		m["replica.ack_rtt_p50_us"] = rd.quantile(0.5) / 1e3
		m["replica.ack_rtt_p99_us"] = rd.quantile(0.99) / 1e3
		m["replica.records_per_write"] = ratio(float64(shipRecs), float64(shipWrites))
		res.samples["replica.ack_rtt_p50_us"], res.samples["replica.ack_rtt_p99_us"] = len(rd), len(rd)
	}
	if o.outDir != "" {
		path := filepath.Join(o.outDir, "trace-"+o.wl.name+".json")
		if err := writeTrace(path, events); err != nil {
			res.notes = append(res.notes, "trace file not written: "+err.Error())
		} else {
			res.notes = append(res.notes, fmt.Sprintf("trace: %d spans in %s", len(events), path))
		}
	}
}

func threadSpanName(kind uint8) string {
	switch kind {
	case kLock:
		return "thread.lock"
	case kBoundary:
		return "thread.boundary"
	}
	return "thread.unlock"
}

// writeTrace writes the spans in Chrome trace_event form (load it in
// chrome://tracing or ui.perfetto.dev). tid groups spans by the goroutine
// that recorded them; args.req is the request they belong to.
func writeTrace(path string, events []event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, e := range events {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%q}}",
			e.name, e.tid, float64(e.start)/1e3, float64(e.dur)/1e3, e.req)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
