package metrics

import (
	"fmt"
	"io"

	"github.com/ido-nvm/ido/internal/obs"
)

// Prometheus text exposition (version 0.0.4), named as
// internal/obs/README.md describes: counters end in _total, gauges carry
// no suffix, log2 histograms export as native histograms
// (_bucket{le="2^i-1"}, _sum, _count) for PromQL's histogram_quantile,
// and per-shard and per-kind series carry a shard="N" or kind="..." label.

// histExport lists the tracer histograms worth scraping continuously;
// the rest remain reachable via /debug/snapshot.
var histExport = []struct {
	h    obs.HistKind
	name string
	help string
}{
	{obs.HReqLatency, "ido_req_latency_ns", "Server-side request latency, parse done to response handed to writer."},
	{obs.HFlushNS, "ido_flush_ns", "Observed latency of each cache-line write-back."},
	{obs.HFenceNS, "ido_fence_ns", "Observed stall of each persist fence."},
}

// WritePrometheus renders cur (and the interval gauges in d, which may
// be nil on a first scrape) in Prometheus text format.
func WritePrometheus(w io.Writer, cur *Snapshot, d *Delta) {
	family := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	t := cur.Srv.Totals()
	for i := range stats {
		r := &stats[i]
		if r.prom == "" || r.tot != nil && len(cur.Srv.Shards) == 0 {
			continue
		}
		v := r.value(cur, &t)
		typ, val := "counter", any(v)
		if r.gauge {
			typ, val = "gauge", int64(v)
		}
		if r.unit == seconds {
			val = float64(int64(v)) / 1e9
		}
		family(r.prom, r.help, typ)
		fmt.Fprintf(w, "%s %v\n", r.prom, val)
	}

	// Per-shard pipeline gauges and the per-verb request counts.
	if len(cur.Srv.Shards) > 0 {
		perShard := func(name, help, typ string, get func(*ShardStats) int64) {
			family(name, help, typ)
			for i := range cur.Srv.Shards {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, get(&cur.Srv.Shards[i]))
			}
		}
		perShard("ido_shard_queue_depth", "Requests parked in the shard dispatch queue.", "gauge", func(sh *ShardStats) int64 { return sh.QueueDepth })
		perShard("ido_shard_inflight", "Requests being executed by the shard thread.", "gauge", func(sh *ShardStats) int64 { return sh.InFlight })
		perShard("ido_shard_requests_total", "Requests completed per shard.", "counter", func(sh *ShardStats) int64 { return int64(sh.Reqs) })
		family("ido_server_verb_total", "Requests completed by verb.", "counter")
		fmt.Fprintf(w, "ido_server_verb_total{verb=\"get\"} %d\nido_server_verb_total{verb=\"set\"} %d\nido_server_verb_total{verb=\"del\"} %d\nido_server_verb_total{verb=\"incr\"} %d\n", t.Gets, t.Sets, t.Dels, t.Incrs)
	}

	// Tracer event counts by kind, and the histograms.
	family("ido_events_total", "Exact traced event counts by kind.", "counter")
	for k := 0; k < obs.NumKinds; k++ {
		if n := cur.Obs.Counts[k]; n > 0 {
			fmt.Fprintf(w, "ido_events_total{kind=%q} %d\n", obs.Kind(k).String(), n)
		}
	}
	for _, he := range histExport {
		writePromHist(w, he.name, he.help, &cur.Obs.Hists[he.h])
	}

	// Interval gauges from the last scrape window.
	if d != nil {
		gaugeF := func(name, help string, v float64) {
			family(name, help, "gauge")
			fmt.Fprintf(w, "%s %g\n", name, v)
		}
		gaugeF("ido_requests_per_second", "Request rate over the last scrape interval.", d.OpsPerSec)
		gaugeF("ido_fences_per_op", "Device fences per request over the last scrape interval.", d.FencesPerOp)
		gaugeF("ido_flushes_per_op", "Cache-line write-backs per request over the last scrape interval.", d.FlushesPerOp)
		family("ido_req_latency_interval_ns", "Request latency quantiles over the last scrape interval.", "gauge")
		fmt.Fprintf(w, "ido_req_latency_interval_ns{quantile=\"0.5\"} %d\n", d.ReqP50NS)
		fmt.Fprintf(w, "ido_req_latency_interval_ns{quantile=\"0.99\"} %d\n", d.ReqP99NS)
		fmt.Fprintf(w, "ido_req_latency_interval_ns{quantile=\"0.999\"} %d\n", d.ReqP999NS)
	}
}

// writePromHist renders one log2 histogram as a Prometheus histogram.
// Empty buckets are elided (le is still cumulative, so PromQL's
// histogram_quantile interpolates correctly); +Inf always appears.
func writePromHist(w io.Writer, name, help string, h *obs.HistCounts) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if c == 0 || i >= 64 { // bucket 64 folds into +Inf below
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, uint64(1)<<i-1, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, cum)
}
