package metrics

import (
	"github.com/ido-nvm/ido/internal/obs"

	"strconv"
)

// In-band protocol exposure: the memcache `stats` verb and the RESP
// `INFO` command render from the same Snapshot the admin plane serves,
// so existing memcache/redis tooling reads the stack's live state
// unmodified. Both renderers append to a caller buffer and are only
// invoked on the reading side of a connection for an explicit stats
// request — never on the per-request hot path.

func appendStat(b []byte, name string, v uint64) []byte {
	b = append(b, "STAT "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	return append(b, '\r', '\n')
}

func appendStatF(b []byte, name string, v float64) []byte {
	b = append(b, "STAT "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'f', 4, 64)
	return append(b, '\r', '\n')
}

// AppendMemcacheStats appends the memcache text-protocol `stats`
// response (STAT lines + END) for s. Field order is fixed: the golden
// wire tests depend on it, and so may scripts built on `nc`.
func AppendMemcacheStats(b []byte, s *Snapshot) []byte {
	uptime := uint64(s.UptimeNS / 1e9)
	t := s.Srv.Totals()
	b = appendStat(b, "uptime", uptime)
	b = appendStat(b, "curr_connections", uint64(s.Srv.ConnsOpen))
	b = appendStat(b, "total_connections", s.Srv.ConnsTotal)
	b = appendStat(b, "cmd_get", t.Gets)
	b = appendStat(b, "cmd_set", t.Sets)
	b = appendStat(b, "cmd_delete", t.Dels)
	b = appendStat(b, "cmd_incr", t.Incrs)
	b = appendStat(b, "get_hits", t.Hits)
	b = appendStat(b, "get_misses", t.Misses)
	b = appendStat(b, "evictions", t.Evictions)
	b = appendStat(b, "bytes_read", s.Srv.BytesIn)
	b = appendStat(b, "bytes_written", s.Srv.BytesOut)
	b = appendStat(b, "protocol_errors", s.Srv.ProtoErrs)
	b = appendStat(b, "rejected_connections", s.Srv.ConnsRejected)
	b = appendStat(b, "idle_kicks", s.Srv.IdleClosed)
	b = appendStat(b, "ido_requests", s.Srv.Reqs)
	b = appendStat(b, "ido_shards", uint64(len(s.Srv.Shards)))
	b = appendStat(b, "ido_fast_gets", t.FastGets)
	b = appendStat(b, "ido_fast_retries", t.FastRetries)
	b = appendStat(b, "ido_fast_parks", t.FastParks)
	b = appendStat(b, "ido_fast_fallbacks", t.FastFallbacks)
	b = appendStat(b, "ido_touch_fases", t.Touches)
	b = appendStat(b, "ido_fences", s.Dev.Fences)
	b = appendStat(b, "ido_flushes", s.Dev.Flushes)
	b = appendStat(b, "ido_nt_stores", s.Dev.NTStores)
	b = appendStat(b, "ido_crashes", s.Dev.Crashes)
	if s.Srv.Reqs > 0 {
		b = appendStatF(b, "ido_fences_per_op", float64(s.Dev.Fences)/float64(s.Srv.Reqs))
	}
	lat := &s.Obs.Hists[obs.HReqLatency]
	b = appendStat(b, "ido_req_p50_ns", lat.Quantile(0.50))
	b = appendStat(b, "ido_req_p99_ns", lat.Quantile(0.99))
	b = appendStat(b, "ido_repl_role", uint64(s.Repl.Role))
	b = appendStat(b, "ido_repl_attached", uint64(s.Repl.Attached))
	b = appendStat(b, "ido_repl_records", s.Repl.Records)
	b = appendStat(b, "ido_repl_bytes", s.Repl.Bytes)
	b = appendStat(b, "ido_repl_acked", s.Repl.AckedRecs)
	b = appendStat(b, "ido_repl_degraded", s.Repl.Degraded)
	b = appendStat(b, "ido_repl_lag_records", s.Repl.LagRecs)
	b = appendStat(b, "ido_repl_lag_bytes", s.Repl.LagBytes)
	b = appendStat(b, "ido_repl_lag_ns", uint64(s.Repl.LagNS))
	b = appendStat(b, "ido_repl_reconnects", s.Repl.Reconnects)
	b = appendStat(b, "ido_repl_failovers", s.Repl.Failovers)
	return append(b, "END\r\n"...)
}

func appendInfo(b []byte, name string, v uint64) []byte {
	b = append(b, name...)
	b = append(b, ':')
	b = strconv.AppendUint(b, v, 10)
	return append(b, '\r', '\n')
}

func appendInfoF(b []byte, name string, v float64) []byte {
	b = append(b, name...)
	b = append(b, ':')
	b = strconv.AppendFloat(b, v, 'f', 4, 64)
	return append(b, '\r', '\n')
}

// AppendRESPInfo appends the RESP `INFO` response — one bulk string of
// `key:value` lines under `# Section` headers, redis-style — for s.
// Field order is fixed for the golden wire tests.
func AppendRESPInfo(b []byte, s *Snapshot) []byte {
	payload := appendInfoPayload(nil, s)
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(payload)), 10)
	b = append(b, '\r', '\n')
	b = append(b, payload...)
	return append(b, '\r', '\n')
}

func appendInfoPayload(b []byte, s *Snapshot) []byte {
	t := s.Srv.Totals()
	b = append(b, "# Server\r\n"...)
	b = appendInfo(b, "uptime_in_seconds", uint64(s.UptimeNS/1e9))
	b = append(b, "# Clients\r\n"...)
	b = appendInfo(b, "connected_clients", uint64(s.Srv.ConnsOpen))
	b = append(b, "# Stats\r\n"...)
	b = appendInfo(b, "total_connections_received", s.Srv.ConnsTotal)
	b = appendInfo(b, "total_commands_processed", s.Srv.Reqs)
	b = appendInfo(b, "total_net_input_bytes", s.Srv.BytesIn)
	b = appendInfo(b, "total_net_output_bytes", s.Srv.BytesOut)
	b = appendInfo(b, "total_reads_processed", t.Gets)
	b = appendInfo(b, "total_writes_processed", t.Sets+t.Dels+t.Incrs)
	b = appendInfo(b, "fastlane_reads_processed", t.FastGets)
	b = appendInfo(b, "fastlane_fallbacks", t.FastFallbacks)
	b = appendInfo(b, "keyspace_hits", t.Hits)
	b = appendInfo(b, "keyspace_misses", t.Misses)
	b = appendInfo(b, "evicted_keys", t.Evictions)
	b = appendInfo(b, "protocol_errors", s.Srv.ProtoErrs)
	b = appendInfo(b, "rejected_connections", s.Srv.ConnsRejected)
	b = appendInfo(b, "idle_closed_connections", s.Srv.IdleClosed)
	b = append(b, "# Persistence\r\n"...)
	b = appendInfo(b, "ido_fences", s.Dev.Fences)
	b = appendInfo(b, "ido_flushes", s.Dev.Flushes)
	b = appendInfo(b, "ido_nt_stores", s.Dev.NTStores)
	b = appendInfo(b, "ido_crashes", s.Dev.Crashes)
	if s.Srv.Reqs > 0 {
		b = appendInfoF(b, "ido_fences_per_op", float64(s.Dev.Fences)/float64(s.Srv.Reqs))
	}
	b = append(b, "# Replication\r\n"...)
	switch s.Repl.Role {
	case ReplRolePrimary:
		b = append(b, "role:master\r\n"...)
	case ReplRoleStandby:
		b = append(b, "role:slave\r\n"...)
	default:
		b = append(b, "role:none\r\n"...)
	}
	b = appendInfo(b, "connected_slaves", uint64(s.Repl.Attached))
	b = appendInfo(b, "repl_records", s.Repl.Records)
	b = appendInfo(b, "repl_bytes", s.Repl.Bytes)
	b = appendInfo(b, "repl_acked_records", s.Repl.AckedRecs)
	b = appendInfo(b, "repl_degraded", s.Repl.Degraded)
	b = appendInfo(b, "repl_lag_records", s.Repl.LagRecs)
	b = appendInfo(b, "repl_lag_bytes", s.Repl.LagBytes)
	b = appendInfo(b, "repl_lag_ns", uint64(s.Repl.LagNS))
	b = appendInfo(b, "repl_reconnects", s.Repl.Reconnects)
	b = appendInfo(b, "repl_failovers", s.Repl.Failovers)
	b = append(b, "# Latency\r\n"...)
	lat := &s.Obs.Hists[obs.HReqLatency]
	b = appendInfo(b, "req_p50_ns", lat.Quantile(0.50))
	b = appendInfo(b, "req_p99_ns", lat.Quantile(0.99))
	return b
}
