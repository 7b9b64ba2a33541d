package metrics

import "github.com/ido-nvm/ido/internal/obs"

// stat is one exported value and its name on each surface that shows
// it; an empty name leaves it off that surface.
type stat struct {
	get  func(*Snapshot) uint64   // the value, read from the snapshot
	tot  func(*ShardStats) uint64 // or from the shard totals; Prometheus omits those until a shard attaches
	unit unit

	prom, help string // Prometheus family and HELP text
	gauge      bool   // Prometheus TYPE gauge, printed signed; counter otherwise

	mc        string // memcache STAT name
	info, sec string // RESP INFO key and its section, one of infoSections
}

type unit uint8

const (
	plain   unit = iota
	seconds      // nanoseconds, shown in seconds: whole on stats/INFO, %g on Prometheus
	perReq       // stats/INFO show value/Srv.Reqs to 4 places, and nothing before the first request
)

// infoSections is INFO's section order.
var infoSections = [...]string{"Server", "Clients", "Stats", "Persistence", "Replication", "Latency"}

// value reads r's value; t is s.Srv.Totals().
func (r *stat) value(s *Snapshot, t *ShardStats) uint64 {
	if r.tot != nil {
		return r.tot(t)
	}
	return r.get(s)
}

// stats is the one table of exported values. Prometheus (/metrics),
// memcache `stats` and RESP `INFO` each render it with one loop, so
// exporting a counter is one row. `stats` prints the rows in table
// order, which scripts may depend on; INFO prints them section by
// section; Prometheus family order is free. The outputs that are not
// one number stay hand-written beside their loop: per-shard gauges,
// verb and kind labels, histograms and interval gauges (prom.go), and
// INFO's role name (text.go).
var stats = [...]stat{
	{get: func(*Snapshot) uint64 { return 1 },
		prom: "ido_up", gauge: true, help: "1 while the process is serving."},
	{get: func(s *Snapshot) uint64 { return uint64(s.UptimeNS) }, unit: seconds, mc: "uptime", info: "uptime_in_seconds", sec: "Server",
		prom: "ido_uptime_seconds", gauge: true, help: "Seconds since the collector started."},
	{get: func(s *Snapshot) uint64 { return uint64(s.Srv.ConnsOpen) }, mc: "curr_connections", info: "connected_clients", sec: "Clients",
		prom: "ido_server_connections_open", gauge: true, help: "Connections currently served."},
	{get: func(s *Snapshot) uint64 { return s.Srv.ConnsTotal }, mc: "total_connections", info: "total_connections_received", sec: "Stats",
		prom: "ido_server_connections_total", help: "Connections ever accepted."},
	{tot: func(t *ShardStats) uint64 { return t.Gets }, mc: "cmd_get", info: "total_reads_processed", sec: "Stats"},
	{tot: func(t *ShardStats) uint64 { return t.Sets }, mc: "cmd_set"},
	{tot: func(t *ShardStats) uint64 { return t.Dels }, mc: "cmd_delete"},
	{tot: func(t *ShardStats) uint64 { return t.Incrs }, mc: "cmd_incr"},
	{tot: func(t *ShardStats) uint64 { return t.Sets + t.Dels + t.Incrs }, info: "total_writes_processed", sec: "Stats"},
	{tot: func(t *ShardStats) uint64 { return t.Hits }, mc: "get_hits", info: "keyspace_hits", sec: "Stats",
		prom: "ido_server_get_hits_total", help: "Gets that found the key."},
	{tot: func(t *ShardStats) uint64 { return t.Misses }, mc: "get_misses", info: "keyspace_misses", sec: "Stats",
		prom: "ido_server_get_misses_total", help: "Gets that did not find the key."},
	{tot: func(t *ShardStats) uint64 { return t.Evictions }, mc: "evictions", info: "evicted_keys", sec: "Stats",
		prom: "ido_server_evictions_total", help: "Watermark evictions performed by shard pipelines."},
	{get: func(s *Snapshot) uint64 { return s.Srv.BytesIn }, mc: "bytes_read", info: "total_net_input_bytes", sec: "Stats",
		prom: "ido_server_bytes_in_total", help: "Bytes read from clients."},
	{get: func(s *Snapshot) uint64 { return s.Srv.BytesOut }, mc: "bytes_written", info: "total_net_output_bytes", sec: "Stats",
		prom: "ido_server_bytes_out_total", help: "Bytes written to clients."},
	{get: func(s *Snapshot) uint64 { return s.Srv.ProtoErrs }, mc: "protocol_errors", info: "protocol_errors", sec: "Stats",
		prom: "ido_server_protocol_errors_total", help: "Error replies sent for malformed or unsupported input."},
	{get: func(s *Snapshot) uint64 { return s.Srv.ConnsRejected }, mc: "rejected_connections", info: "rejected_connections", sec: "Stats",
		prom: "ido_server_connections_rejected_total", help: "Connections refused by the MaxConns ingress gate."},
	{get: func(s *Snapshot) uint64 { return s.Srv.IdleClosed }, mc: "idle_kicks", info: "idle_closed_connections", sec: "Stats",
		prom: "ido_server_idle_closed_total", help: "Connections closed by the idle-timeout deadline."},
	{get: func(s *Snapshot) uint64 { return s.Srv.Reqs }, mc: "ido_requests", info: "total_commands_processed", sec: "Stats",
		prom: "ido_server_requests_total", help: "Requests completed by the server."},
	{get: func(s *Snapshot) uint64 { return s.Srv.Batches },
		prom: "ido_server_response_batches_total", help: "Response batches flushed to clients."},
	{get: func(s *Snapshot) uint64 { return s.Srv.Crashes },
		prom: "ido_server_crashes_total", help: "Injected device crashes observed while serving."},
	{get: func(s *Snapshot) uint64 { return uint64(len(s.Srv.Shards)) }, mc: "ido_shards"},

	// Read fast lane: lock-free gets served off reader goroutines, and
	// the seqlock conflicts/waits/fallbacks behind them.
	{tot: func(t *ShardStats) uint64 { return t.FastGets }, mc: "ido_fast_gets", info: "fastlane_reads_processed", sec: "Stats",
		prom: "ido_server_fast_gets_total", help: "Gets served on the lock-free fast lane."},
	{tot: func(t *ShardStats) uint64 { return t.FastRetries }, mc: "ido_fast_retries",
		prom: "ido_server_fast_retries_total", help: "Seqlock validation conflicts retried on the fast lane."},
	{tot: func(t *ShardStats) uint64 { return t.FastParks }, mc: "ido_fast_parks",
		prom: "ido_server_fast_parks_total", help: "Fast-lane reads that met a write in flight and waited for it to finish."},
	{tot: func(t *ShardStats) uint64 { return t.FastFallbacks }, mc: "ido_fast_fallbacks", info: "fastlane_fallbacks", sec: "Stats",
		prom: "ido_server_fast_fallbacks_total", help: "Fast-lane reads that fell back to the shard slot path."},
	{tot: func(t *ShardStats) uint64 { return t.Touches }, mc: "ido_touch_fases",
		prom: "ido_server_touch_fases_total", help: "Sampled LRU-touch FASEs drained by shard pipelines."},

	// Device persist events: the paper's currency.
	{get: func(s *Snapshot) uint64 { return s.Dev.Fences }, mc: "ido_fences", info: "ido_fences", sec: "Persistence",
		prom: "ido_fences_total", help: "Persist fences issued to the NVM device."},
	{get: func(s *Snapshot) uint64 { return s.Dev.Flushes }, mc: "ido_flushes", info: "ido_flushes", sec: "Persistence",
		prom: "ido_flushes_total", help: "Cache-line write-backs (CLWB) issued."},
	{get: func(s *Snapshot) uint64 { return s.Dev.NTStores }, mc: "ido_nt_stores", info: "ido_nt_stores", sec: "Persistence",
		prom: "ido_nt_stores_total", help: "Non-temporal stores issued."},
	{get: func(s *Snapshot) uint64 { return s.Dev.Evictions },
		prom: "ido_evictions_total", help: "Spontaneous cache evictions written back."},
	{get: func(s *Snapshot) uint64 { return s.Dev.Crashes }, mc: "ido_crashes", info: "ido_crashes", sec: "Persistence",
		prom: "ido_device_crashes_total", help: "Device crashes settled."},
	{get: func(s *Snapshot) uint64 { return s.Dev.Fences }, unit: perReq, mc: "ido_fences_per_op", info: "ido_fences_per_op", sec: "Persistence"},
	{get: func(s *Snapshot) uint64 { return s.Obs.Hists[obs.HReqLatency].Quantile(0.50) }, mc: "ido_req_p50_ns", info: "req_p50_ns", sec: "Latency"},
	{get: func(s *Snapshot) uint64 { return s.Obs.Hists[obs.HReqLatency].Quantile(0.99) }, mc: "ido_req_p99_ns", info: "req_p99_ns", sec: "Latency"},

	// Hot-standby replication: role/lag gauges and stream counters.
	// INFO writes the role as a name (role:master), not a number.
	{get: func(s *Snapshot) uint64 { return uint64(s.Repl.Role) }, mc: "ido_repl_role",
		prom: "ido_repl_role", gauge: true, help: "Replication role: 0 none, 1 primary, 2 standby."},
	{get: func(s *Snapshot) uint64 { return uint64(s.Repl.Attached) }, mc: "ido_repl_attached", info: "connected_slaves", sec: "Replication",
		prom: "ido_repl_attached", gauge: true, help: "1 while the replication stream is live."},
	{get: func(s *Snapshot) uint64 { return s.Repl.Records }, mc: "ido_repl_records", info: "repl_records", sec: "Replication",
		prom: "ido_repl_records_total", help: "Replication records shipped (primary) or applied (standby)."},
	{get: func(s *Snapshot) uint64 { return s.Repl.Bytes }, mc: "ido_repl_bytes", info: "repl_bytes", sec: "Replication",
		prom: "ido_repl_bytes_total", help: "Replication stream bytes shipped or received."},
	{get: func(s *Snapshot) uint64 { return s.Repl.AckedRecs }, mc: "ido_repl_acked", info: "repl_acked_records", sec: "Replication",
		prom: "ido_repl_acked_records_total", help: "Records durably applied on the standby."},
	{get: func(s *Snapshot) uint64 { return s.Repl.Degraded }, mc: "ido_repl_degraded", info: "repl_degraded", sec: "Replication",
		prom: "ido_repl_degraded_total", help: "Client completions released without standby coverage."},
	{get: func(s *Snapshot) uint64 { return s.Repl.LagRecs }, mc: "ido_repl_lag_records", info: "repl_lag_records", sec: "Replication",
		prom: "ido_repl_lag_records", gauge: true, help: "Records published but not yet durably applied on the standby."},
	{get: func(s *Snapshot) uint64 { return s.Repl.LagBytes }, mc: "ido_repl_lag_bytes", info: "repl_lag_bytes", sec: "Replication",
		prom: "ido_repl_lag_bytes", gauge: true, help: "Replication lag in stream bytes."},
	{get: func(s *Snapshot) uint64 { return uint64(s.Repl.LagNS) }, mc: "ido_repl_lag_ns", info: "repl_lag_ns", sec: "Replication",
		prom: "ido_repl_lag_ns", gauge: true, help: "Age of the oldest completion still waiting on a receipt ack."},
	{get: func(s *Snapshot) uint64 { return s.Repl.Reconnects }, mc: "ido_repl_reconnects", info: "repl_reconnects", sec: "Replication",
		prom: "ido_repl_reconnects_total", help: "Replication stream (re)attaches."},
	{get: func(s *Snapshot) uint64 { return s.Repl.Failovers }, mc: "ido_repl_failovers", info: "repl_failovers", sec: "Replication",
		prom: "ido_repl_failovers_total", help: "Standby promotions to primary."},

	{get: func(s *Snapshot) uint64 { return s.Obs.Dropped },
		prom: "ido_events_dropped_total", help: "Events lost to full rings (counts stay exact)."},
}
