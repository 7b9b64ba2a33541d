// Package metrics is the introspection plane over the serving stack: a
// lock-free snapshot/delta layer that turns the cumulative counters the
// hot paths already maintain — obs.Tracer event counts and histograms,
// nvm.Device persist-event stats, drain-sharing gauges, and the
// server's per-shard pipeline gauges — into one coherent Snapshot that
// renders as Prometheus text, memcache `stats`, RESP `INFO`, or JSON,
// and diffs into interval rates (req/s, fences/op, batch occupancy,
// latency quantiles).
//
// The design constraint is the same one the tracer lives under: the
// serve path stays 0 allocs/op. Producers never do metrics work beyond
// the atomic counters they already bump; a Collector.Read is a bounded
// pass of atomic loads into a caller-owned Snapshot, itself 0 allocs
// once the snapshot's shard slice has been sized. Everything textual
// (Prometheus rendering, stats/INFO bodies) happens on the reading
// side, off the hot path.
package metrics

import (
	"time"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
)

// ShardStats is one shard pipeline's gauges and counters.
type ShardStats struct {
	QueueDepth int64  // requests parked in the shard's dispatch queue now
	InFlight   int64  // requests being executed by the shard thread now (0 or 1)
	Reqs       uint64 // requests the shard has completed
	Gets       uint64
	Sets       uint64
	Dels       uint64
	Incrs      uint64 // incr + decr read-modify-writes
	Hits       uint64 // gets that found the key
	Misses     uint64 // gets that did not

	// Read fast-lane counters: gets served lock-free off the reader
	// goroutine, seqlock conflicts retried, parks (a fast read met a
	// write in flight — an odd shard epoch — and spun on the epoch until
	// the write finished or the spin bound ran out), and bounded-retry
	// falls back to the slot path.
	FastGets      uint64
	FastRetries   uint64
	FastParks     uint64
	FastFallbacks uint64
	Touches       uint64 // sampled LRU-touch FASEs drained by the pipeline
	Evictions     uint64 // watermark evictions performed by the pipeline
}

// ServerStats is the front end's counter/gauge block, filled by the
// server through the Source interface so this package never imports it.
type ServerStats struct {
	ConnsOpen     int64  // connections currently served
	ConnsTotal    uint64 // connections ever accepted
	Reqs          uint64 // requests completed (all shards)
	Batches       uint64 // response batches flushed to clients
	BytesIn       uint64 // bytes read from clients
	BytesOut      uint64 // bytes written to clients
	ProtoErrs     uint64 // error replies sent (malformed/unsupported input)
	ConnsRejected uint64 // connections refused by the MaxConns ingress gate
	IdleClosed    uint64 // connections closed by the idle-timeout deadline
	Crashes       uint64 // injected device crashes observed while serving
	Shards        []ShardStats
}

// Totals sums every field over the shards: the server-wide view the
// Prometheus, memcache `stats` and RESP `INFO` renderers share.
func (s *ServerStats) Totals() ShardStats {
	var t ShardStats
	for i := range s.Shards {
		sh := &s.Shards[i]
		t.QueueDepth += sh.QueueDepth
		t.InFlight += sh.InFlight
		t.Reqs += sh.Reqs
		t.Gets += sh.Gets
		t.Sets += sh.Sets
		t.Dels += sh.Dels
		t.Incrs += sh.Incrs
		t.Hits += sh.Hits
		t.Misses += sh.Misses
		t.FastGets += sh.FastGets
		t.FastRetries += sh.FastRetries
		t.FastParks += sh.FastParks
		t.FastFallbacks += sh.FastFallbacks
		t.Touches += sh.Touches
		t.Evictions += sh.Evictions
	}
	return t
}

// Source is anything that can fill a ServerStats in place. Implemented
// by *server.Server; dst.Shards must be reused when its capacity
// suffices so steady-state reads stay allocation-free.
type Source interface {
	MetricsSnapshot(dst *ServerStats)
}

// Replication roles for ReplStats.Role.
const (
	ReplRoleNone    = 0
	ReplRolePrimary = 1
	ReplRoleStandby = 2
)

// ReplStats is the hot-standby replication block, filled by a
// replica.Shipper (primary) or replica.Standby through the ReplSource
// interface. Lag fields are instantaneous gauges; the rest are
// cumulative.
type ReplStats struct {
	Role       int64  // ReplRoleNone / ReplRolePrimary / ReplRoleStandby
	Attached   int64  // 1 while the replication stream is live
	Records    uint64 // records shipped (primary) or applied (standby)
	Bytes      uint64 // stream bytes shipped (primary) or received (standby)
	AckedRecs  uint64 // records the standby has durably applied
	Degraded   uint64 // completions without standby coverage (primary) / replay dups skipped (standby)
	LagRecs    uint64 // records published but not yet durably applied
	LagBytes   uint64 // the same lag in stream bytes
	LagNS      int64  // age of the oldest completion still waiting on a receipt ack
	Reconnects uint64 // stream (re)attaches
	Failovers  uint64 // standby promotions
}

// ReplSource is anything that can fill a ReplStats in place.
type ReplSource interface {
	ReplSnapshot(dst *ReplStats)
}

// Snapshot is one cumulative observation of the whole stack. Every
// field is monotonic (gauges excepted), so two Snapshots diff into
// interval rates; one Snapshot renders directly as cumulative counters.
type Snapshot struct {
	// MonoNS is nanoseconds on the tracer clock (or wall time since the
	// collector started when no tracer is attached) — the time base that
	// turns a diff into rates.
	MonoNS   int64
	UptimeNS int64

	Dev  nvm.Stats
	GC   nvm.GCStats
	Obs  obs.State
	Srv  ServerStats
	Repl ReplStats
}

// Collector reads the live stack into Snapshots. Any of the fields may
// be nil; absent layers read as zero. Safe for concurrent use — every
// Read is an independent pass of atomic loads.
type Collector struct {
	Tracer *obs.Tracer
	Dev    *nvm.Device
	Src    Source
	Repl   ReplSource
	Start  time.Time // collector birth; uptime base. Zero value = first Read.
}

// NewCollector builds a collector over a tracer and device (either may
// be nil). Attach the serving front end via the Src field.
func NewCollector(tr *obs.Tracer, dev *nvm.Device) *Collector {
	return &Collector{Tracer: tr, Dev: dev, Start: time.Now()}
}

// Read fills s with a cumulative snapshot of every attached layer.
// 0 allocs/op once s's shard slice has been sized (first call per
// Snapshot); the CI gate holds this alongside the serve-path gate.
func (c *Collector) Read(s *Snapshot) {
	if c.Start.IsZero() {
		c.Start = time.Now()
	}
	s.UptimeNS = int64(time.Since(c.Start))
	if c.Tracer != nil {
		s.MonoNS = c.Tracer.Clock()
	} else {
		s.MonoNS = s.UptimeNS
	}
	c.Tracer.ReadState(&s.Obs)
	if c.Dev != nil {
		s.Dev = c.Dev.Stats()
		s.GC = c.Dev.GroupCommitStats()
	} else {
		s.Dev = nvm.Stats{}
		s.GC = nvm.GCStats{}
	}
	if c.Src != nil {
		c.Src.MetricsSnapshot(&s.Srv)
	} else {
		s.Srv = ServerStats{Shards: s.Srv.Shards[:0]}
	}
	if c.Repl != nil {
		c.Repl.ReplSnapshot(&s.Repl)
	} else {
		s.Repl = ReplStats{}
	}
}

// Snapshot allocates and fills a fresh Snapshot — the convenience form
// for admin handlers, which are off the hot path.
func (c *Collector) Snapshot() *Snapshot {
	s := new(Snapshot)
	c.Read(s)
	return s
}

// Delta holds the interval rates between two Snapshots — the live
// answers to the paper's §V questions (persist events per operation)
// plus the serving SLOs.
type Delta struct {
	WindowNS int64

	Reqs      uint64  // requests completed in the window
	OpsPerSec float64 // request rate over the window
	Errs      uint64  // protocol errors in the window

	FencesPerOp  float64 // device fences per request
	FlushesPerOp float64 // device write-backs per request
	NTPerOp      float64 // non-temporal stores per request

	// BatchOccupancy is fences completed per drain performed over the
	// window (nvm drain sharing) — 0 when no drain completed, 1 when
	// no fence was ever covered by another thread's drain.
	BatchOccupancy float64

	// Request latency quantiles over the window, from the HReqLatency
	// log2 buckets (bucket upper bounds, so within 2x).
	ReqP50NS  uint64
	ReqP99NS  uint64
	ReqP999NS uint64
}

// Diff computes interval rates cur - prev into d. Both snapshots should
// come from the same Collector; a stale pair clamps at zero rather than
// underflowing. The op basis is server requests when the front end is
// attached, committed FASEs otherwise (so `idobench`-style worlds diff
// meaningfully too).
func Diff(prev, cur *Snapshot, d *Delta) {
	*d = Delta{WindowNS: cur.MonoNS - prev.MonoNS}
	if d.WindowNS <= 0 {
		d.WindowNS = 1
	}
	ops := sub(cur.Srv.Reqs, prev.Srv.Reqs)
	if cur.Srv.Reqs == 0 { // no front end attached: fall back to FASE commits
		ops = sub(cur.Obs.Counts[obs.KFASE], prev.Obs.Counts[obs.KFASE])
	}
	d.Reqs = ops
	d.OpsPerSec = float64(ops) / (float64(d.WindowNS) / 1e9)
	d.Errs = sub(cur.Srv.ProtoErrs, prev.Srv.ProtoErrs)
	if ops > 0 {
		d.FencesPerOp = float64(sub(cur.Dev.Fences, prev.Dev.Fences)) / float64(ops)
		d.FlushesPerOp = float64(sub(cur.Dev.Flushes, prev.Dev.Flushes)) / float64(ops)
		d.NTPerOp = float64(sub(cur.Dev.NTStores, prev.Dev.NTStores)) / float64(ops)
	}
	if drains := sub(cur.GC.Epochs, prev.GC.Epochs); drains > 0 {
		d.BatchOccupancy = float64(sub(cur.GC.ServedFASEs, prev.GC.ServedFASEs)) / float64(drains)
	}
	lat := cur.Obs.Hists[obs.HReqLatency].Sub(&prev.Obs.Hists[obs.HReqLatency])
	d.ReqP50NS = lat.Quantile(0.50)
	d.ReqP99NS = lat.Quantile(0.99)
	d.ReqP999NS = lat.Quantile(0.999)
}

func sub(cur, prev uint64) uint64 {
	if cur > prev {
		return cur - prev
	}
	return 0
}
