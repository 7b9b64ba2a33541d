package metrics

import "strconv"

// In-band protocol exposure: the memcache `stats` verb and the RESP
// `INFO` command, so stock memcache/redis tooling reads the live stack.
// Both append to a caller buffer, on the reading side of a connection
// that asked for them, never on the per-request hot path.

// AppendMemcacheStats appends the memcache text-protocol `stats`
// response (STAT lines in table order, then END) for s.
func AppendMemcacheStats(b []byte, s *Snapshot) []byte {
	t := s.Srv.Totals()
	for i := range stats {
		if r := &stats[i]; r.mc != "" {
			b = r.appendLine(b, "STAT ", r.mc, ' ', s, &t)
		}
	}
	return append(b, "END\r\n"...)
}

// AppendRESPInfo appends the RESP `INFO` response — one bulk string of
// `key:value` lines under `# Section` headers, redis-style — for s.
func AppendRESPInfo(b []byte, s *Snapshot) []byte {
	var p []byte
	t := s.Srv.Totals()
	for _, sec := range infoSections {
		p = append(append(append(p, "# "...), sec...), '\r', '\n')
		if sec == "Replication" {
			p = append(p, "role:"...)
			switch s.Repl.Role {
			case ReplRolePrimary:
				p = append(p, "master\r\n"...)
			case ReplRoleStandby:
				p = append(p, "slave\r\n"...)
			default:
				p = append(p, "none\r\n"...)
			}
		}
		for i := range stats {
			if r := &stats[i]; r.info != "" && r.sec == sec {
				p = r.appendLine(p, "", r.info, ':', s, &t)
			}
		}
	}
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(p)), 10)
	b = append(append(append(b, '\r', '\n'), p...), '\r', '\n')
	return b
}

// appendLine appends one `prefix name sep value` CRLF line, or nothing
// for a per-request ratio before the first request.
func (r *stat) appendLine(b []byte, prefix, name string, sep byte, s *Snapshot, t *ShardStats) []byte {
	if r.unit == perReq && s.Srv.Reqs == 0 {
		return b
	}
	b = append(append(append(b, prefix...), name...), sep)
	switch v := r.value(s, t); r.unit {
	case seconds:
		b = strconv.AppendUint(b, v/1e9, 10)
	case perReq:
		b = strconv.AppendFloat(b, float64(v)/float64(s.Srv.Reqs), 'f', 4, 64)
	default:
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, '\r', '\n')
}
