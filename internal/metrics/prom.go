package metrics

import (
	"fmt"
	"io"
	"strconv"

	"github.com/ido-nvm/ido/internal/obs"
)

// Prometheus text exposition (version 0.0.4). Naming scheme (documented
// in internal/obs/README.md):
//
//   - cumulative counters end in _total;
//   - instantaneous gauges carry no suffix (queue depth, conns open,
//     and the interval-derived rates like ido_fences_per_op);
//   - log2 histograms export as native Prometheus histograms
//     (_bucket{le="2^i-1"}, _sum, _count) so PromQL histogram_quantile
//     works on them directly;
//   - per-shard series carry a shard="N" label, per-kind event counts a
//     kind="..." label.

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
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gaugeI := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	gaugeF("ido_up", "1 while the process is serving.", 1)
	gaugeF("ido_uptime_seconds", "Seconds since the collector started.", float64(cur.UptimeNS)/1e9)

	// Device persist events — the paper's currency.
	counter("ido_fences_total", "Persist fences issued to the NVM device.", cur.Dev.Fences)
	counter("ido_flushes_total", "Cache-line write-backs (CLWB) issued.", cur.Dev.Flushes)
	counter("ido_nt_stores_total", "Non-temporal stores issued.", cur.Dev.NTStores)
	counter("ido_evictions_total", "Spontaneous cache evictions written back.", cur.Dev.Evictions)
	counter("ido_device_crashes_total", "Device crashes settled.", cur.Dev.Crashes)

	// Front end.
	counter("ido_server_requests_total", "Requests completed by the server.", cur.Srv.Reqs)
	counter("ido_server_response_batches_total", "Response batches flushed to clients.", cur.Srv.Batches)
	counter("ido_server_bytes_in_total", "Bytes read from clients.", cur.Srv.BytesIn)
	counter("ido_server_bytes_out_total", "Bytes written to clients.", cur.Srv.BytesOut)
	counter("ido_server_protocol_errors_total", "Error replies sent for malformed or unsupported input.", cur.Srv.ProtoErrs)
	counter("ido_server_connections_total", "Connections ever accepted.", cur.Srv.ConnsTotal)
	counter("ido_server_connections_rejected_total", "Connections refused by the MaxConns ingress gate.", cur.Srv.ConnsRejected)
	counter("ido_server_idle_closed_total", "Connections closed by the idle-timeout deadline.", cur.Srv.IdleClosed)
	counter("ido_server_crashes_total", "Injected device crashes observed while serving.", cur.Srv.Crashes)
	gaugeI("ido_server_connections_open", "Connections currently served.", cur.Srv.ConnsOpen)

	// Per-shard pipeline gauges.
	if len(cur.Srv.Shards) > 0 {
		fmt.Fprintf(w, "# HELP ido_shard_queue_depth Requests parked in the shard dispatch queue.\n# TYPE ido_shard_queue_depth gauge\n")
		for i := range cur.Srv.Shards {
			fmt.Fprintf(w, "ido_shard_queue_depth{shard=\"%d\"} %d\n", i, cur.Srv.Shards[i].QueueDepth)
		}
		fmt.Fprintf(w, "# HELP ido_shard_inflight Requests being executed by the shard thread.\n# TYPE ido_shard_inflight gauge\n")
		for i := range cur.Srv.Shards {
			fmt.Fprintf(w, "ido_shard_inflight{shard=\"%d\"} %d\n", i, cur.Srv.Shards[i].InFlight)
		}
		fmt.Fprintf(w, "# HELP ido_shard_requests_total Requests completed per shard.\n# TYPE ido_shard_requests_total counter\n")
		for i := range cur.Srv.Shards {
			fmt.Fprintf(w, "ido_shard_requests_total{shard=\"%d\"} %d\n", i, cur.Srv.Shards[i].Reqs)
		}
		t := cur.Srv.Totals()
		fmt.Fprintf(w, "# HELP ido_server_verb_total Requests completed by verb.\n# TYPE ido_server_verb_total counter\n")
		fmt.Fprintf(w, "ido_server_verb_total{verb=\"get\"} %d\nido_server_verb_total{verb=\"set\"} %d\nido_server_verb_total{verb=\"del\"} %d\nido_server_verb_total{verb=\"incr\"} %d\n", t.Gets, t.Sets, t.Dels, t.Incrs)
		counter("ido_server_get_hits_total", "Gets that found the key.", t.Hits)
		counter("ido_server_get_misses_total", "Gets that did not find the key.", t.Misses)

		// Read fast lane: lock-free gets served off reader goroutines, and
		// the seqlock conflicts/waits/fallbacks behind them.
		counter("ido_server_fast_gets_total", "Gets served on the lock-free fast lane.", t.FastGets)
		counter("ido_server_fast_retries_total", "Seqlock validation conflicts retried on the fast lane.", t.FastRetries)
		counter("ido_server_fast_parks_total", "Fast-lane reads that met a write in flight and waited for it to finish.", t.FastParks)
		counter("ido_server_fast_fallbacks_total", "Fast-lane reads that fell back to the shard slot path.", t.FastFallbacks)
		counter("ido_server_touch_fases_total", "Sampled LRU-touch FASEs drained by shard pipelines.", t.Touches)
		counter("ido_server_evictions_total", "Watermark evictions performed by shard pipelines.", t.Evictions)
	}

	// Hot-standby replication: role/lag gauges and stream counters.
	gaugeI("ido_repl_role", "Replication role: 0 none, 1 primary, 2 standby.", cur.Repl.Role)
	gaugeI("ido_repl_attached", "1 while the replication stream is live.", cur.Repl.Attached)
	counter("ido_repl_records_total", "Replication records shipped (primary) or applied (standby).", cur.Repl.Records)
	counter("ido_repl_bytes_total", "Replication stream bytes shipped or received.", cur.Repl.Bytes)
	counter("ido_repl_acked_records_total", "Records durably applied on the standby.", cur.Repl.AckedRecs)
	counter("ido_repl_degraded_total", "Client completions released without standby coverage.", cur.Repl.Degraded)
	counter("ido_repl_reconnects_total", "Replication stream (re)attaches.", cur.Repl.Reconnects)
	counter("ido_repl_failovers_total", "Standby promotions to primary.", cur.Repl.Failovers)
	gaugeI("ido_repl_lag_records", "Records published but not yet durably applied on the standby.", int64(cur.Repl.LagRecs))
	gaugeI("ido_repl_lag_bytes", "Replication lag in stream bytes.", int64(cur.Repl.LagBytes))
	gaugeI("ido_repl_lag_ns", "Age of the oldest completion still waiting on a receipt ack.", cur.Repl.LagNS)

	// Tracer event counts and ring accounting.
	fmt.Fprintf(w, "# HELP ido_events_total Exact traced event counts by kind.\n# TYPE ido_events_total counter\n")
	for k := 0; k < obs.NumKinds; k++ {
		if n := cur.Obs.Counts[k]; n > 0 {
			fmt.Fprintf(w, "ido_events_total{kind=%q} %d\n", obs.Kind(k).String(), n)
		}
	}
	counter("ido_events_dropped_total", "Events lost to full rings (counts stay exact).", cur.Obs.Dropped)

	// Histograms.
	for _, he := range histExport {
		writePromHist(w, he.name, he.help, &cur.Obs.Hists[he.h])
	}

	// Interval gauges from the last scrape window.
	if d != nil {
		gaugeF("ido_requests_per_second", "Request rate over the last scrape interval.", d.OpsPerSec)
		gaugeF("ido_fences_per_op", "Device fences per request over the last scrape interval.", d.FencesPerOp)
		gaugeF("ido_flushes_per_op", "Cache-line write-backs per request over the last scrape interval.", d.FlushesPerOp)
		fmt.Fprintf(w, "# HELP ido_req_latency_interval_ns Request latency quantiles over the last scrape interval.\n# TYPE ido_req_latency_interval_ns gauge\n")
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
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, bucketLE(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, cum)
}

// bucketLE is the upper bound of log2 bucket i as a Prometheus le value.
func bucketLE(i int) string {
	if i == 0 {
		return "0"
	}
	if i >= 64 {
		return "+Inf"
	}
	return strconv.FormatUint(1<<uint(i)-1, 10)
}
