package server_test

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/server"
)

// Golden wire conformance for the in-band introspection verbs: memcache
// `stats` and RESP `INFO`. Both render from the metrics snapshot layer;
// these tests pin the byte-level framing, the fixed field order, and the
// counter values after a deterministic op sequence on a quiesced
// connection (all prior replies read, so every prior slot completed).

// readUntil reads from c until the buffer ends with suffix, with a
// watchdog like readFull.
func readUntil(t *testing.T, c net.Conn, suffix string) []byte {
	t.Helper()
	done := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		var buf []byte
		tmp := make([]byte, 4096)
		for {
			n, err := c.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if bytes.HasSuffix(buf, []byte(suffix)) {
				done <- buf
				return
			}
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	select {
	case buf := <-done:
		return buf
	case err := <-errc:
		t.Fatalf("reading until %q: %v", suffix, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out reading until %q", suffix)
	}
	return nil
}

// mcStatOrder is the fixed STAT line order AppendMemcacheStats emits.
// ido_fences_per_op only appears once the server has served a request.
var mcStatOrder = []string{
	"uptime", "curr_connections", "total_connections",
	"cmd_get", "cmd_set", "cmd_delete", "cmd_incr",
	"get_hits", "get_misses", "evictions",
	"bytes_read", "bytes_written", "protocol_errors",
	"rejected_connections", "idle_kicks",
	"ido_requests", "ido_shards",
	"ido_fast_gets", "ido_fast_retries", "ido_fast_parks",
	"ido_fast_fallbacks", "ido_touch_fases",
	"ido_fences", "ido_flushes", "ido_nt_stores", "ido_crashes",
	"ido_fences_per_op",
	"ido_req_p50_ns", "ido_req_p99_ns",
	"ido_repl_role", "ido_repl_attached", "ido_repl_records",
	"ido_repl_bytes", "ido_repl_acked", "ido_repl_degraded",
	"ido_repl_lag_records", "ido_repl_lag_bytes", "ido_repl_lag_ns",
	"ido_repl_reconnects", "ido_repl_failovers",
}

// parseStats splits a memcache stats body into ordered name→value pairs
// and validates the line grammar.
func parseStats(t *testing.T, body []byte) (names []string, vals map[string]string) {
	t.Helper()
	vals = map[string]string{}
	lines := strings.Split(string(body), "\r\n")
	if lines[len(lines)-1] != "" || lines[len(lines)-2] != "END" {
		t.Fatalf("stats body not END-terminated: %q", body)
	}
	for _, ln := range lines[:len(lines)-2] {
		parts := strings.Split(ln, " ")
		if len(parts) != 3 || parts[0] != "STAT" || parts[1] == "" || parts[2] == "" {
			t.Fatalf("malformed STAT line %q", ln)
		}
		names = append(names, parts[1])
		vals[parts[1]] = parts[2]
	}
	return names, vals
}

func statU(t *testing.T, vals map[string]string, name string) uint64 {
	t.Helper()
	v, ok := vals[name]
	if !ok {
		t.Fatalf("stats missing %q", name)
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("stat %s=%q not a uint: %v", name, v, err)
	}
	return u
}

func TestMemcacheStatsWire(t *testing.T) {
	tr := obs.New(obs.DefaultConfig())
	w := newWorld(t, server.ProtoMemcache, 2, nvm.Config{Size: 1 << 22}, tr)
	c := w.dial(t)
	steps := []step{
		{"set foo 0 0 3\r\n123\r\n", "STORED\r\n"},
		{"get foo\r\n", "VALUE foo 0 3\r\n123\r\nEND\r\n"},
		{"get nope\r\n", "END\r\n"},
		{"delete foo\r\n", "DELETED\r\n"},
	}
	runSteps(t, c, steps)

	if _, err := c.Write([]byte("stats\r\n")); err != nil {
		t.Fatalf("stats: %v", err)
	}
	body := readUntil(t, c, "END\r\n")
	names, vals := parseStats(t, body)

	// Field order is part of the wire contract.
	want := mcStatOrder
	if len(names) != len(want) {
		t.Fatalf("got %d STAT lines %v, want %d", len(names), names, len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("STAT %d is %q, want %q (full order %v)", i, names[i], want[i], names)
		}
	}

	// Counter values after the deterministic sequence above.
	sent := 0
	for _, s := range steps {
		sent += len(s.send)
	}
	sent += len("stats\r\n")
	for name, wantV := range map[string]uint64{
		"curr_connections":   1,
		"total_connections":  1,
		"cmd_get":            2,
		"cmd_set":            1,
		"cmd_delete":         1,
		"cmd_incr":           0,
		"get_hits":           1,
		"get_misses":         1,
		"ido_fast_gets":      2,
		"ido_fast_fallbacks": 0,
		"protocol_errors":    0,
		"ido_requests":       4,
		"ido_shards":         2,
		"ido_crashes":        0,
		"bytes_read":         uint64(sent),
	} {
		if got := statU(t, vals, name); got != wantV {
			t.Errorf("stat %s = %d, want %d", name, got, wantV)
		}
	}
	if statU(t, vals, "ido_fences") == 0 {
		t.Errorf("ido_fences = 0 after persistent set+delete")
	}
	// The snapshot's device counters must agree with the tracer's exact
	// event counts — same invariant the obs conformance suite enforces,
	// now visible over the wire.
	if got, traced := statU(t, vals, "ido_fences"), tr.Count(obs.KFence); got != traced {
		t.Errorf("wire ido_fences %d != traced fences %d", got, traced)
	}
	if statU(t, vals, "ido_req_p99_ns") == 0 {
		t.Errorf("ido_req_p99_ns = 0 with a tracer attached")
	}

	// Arguments are refused (subcommand stats are not implemented).
	runSteps(t, c, []step{{"stats items\r\n", "ERROR\r\n"}})

	// A second stats read reflects the first: total requests grew.
	if _, err := c.Write([]byte("stats\r\n")); err != nil {
		t.Fatalf("stats: %v", err)
	}
	_, vals2 := parseStats(t, readUntil(t, c, "END\r\n"))
	if r1, r2 := statU(t, vals, "ido_requests"), statU(t, vals2, "ido_requests"); r2 <= r1 {
		t.Errorf("ido_requests did not advance across reads: %d then %d", r1, r2)
	}
}

// respInfoSections is the fixed section order AppendRESPInfo emits.
var respInfoSections = []string{"# Server", "# Clients", "# Stats", "# Persistence", "# Replication", "# Latency"}

// readLine reads one CRLF line byte-by-byte (the whole reply may land
// in a single Read, so readUntil would overshoot into the payload).
func readLine(t *testing.T, c net.Conn) []byte {
	t.Helper()
	var buf []byte
	for !bytes.HasSuffix(buf, []byte("\r\n")) {
		buf = append(buf, readFull(t, c, 1)...)
		if len(buf) > 64 {
			t.Fatalf("header line too long: %q", buf)
		}
	}
	return buf
}

// readBulk reads one RESP bulk string reply, validating its framing.
func readBulk(t *testing.T, c net.Conn) []byte {
	t.Helper()
	hdr := readLine(t, c)
	if len(hdr) < 4 || hdr[0] != '$' {
		t.Fatalf("not a bulk header: %q", hdr)
	}
	n, err := strconv.Atoi(string(hdr[1 : len(hdr)-2]))
	if err != nil || n < 0 {
		t.Fatalf("bad bulk length in %q: %v", hdr, err)
	}
	body := readFull(t, c, n+2)
	if string(body[n:]) != "\r\n" {
		t.Fatalf("bulk payload not CRLF-terminated: %q", body[n:])
	}
	return body[:n]
}

func TestRESPInfoWire(t *testing.T) {
	tr := obs.New(obs.DefaultConfig())
	w := newWorld(t, server.ProtoRESP, 2, nvm.Config{Size: 1 << 22}, tr)
	c := w.dial(t)
	runSteps(t, c, []step{
		{"*3\r\n$3\r\nSET\r\n$2\r\nk1\r\n$2\r\n42\r\n", "+OK\r\n"},
		{"GET k1\r\n", "$2\r\n42\r\n"},
		{"GET kx\r\n", "$-1\r\n"},
		{"*2\r\n$3\r\nDEL\r\n$2\r\nk1\r\n", ":1\r\n"},
	})

	if _, err := c.Write([]byte("INFO\r\n")); err != nil {
		t.Fatalf("INFO: %v", err)
	}
	payload := string(readBulk(t, c))

	// Sections appear in order; every non-section line is key:value.
	pos := -1
	for _, sec := range respInfoSections {
		at := strings.Index(payload, sec+"\r\n")
		if at < 0 {
			t.Fatalf("INFO missing section %q:\n%s", sec, payload)
		}
		if at < pos {
			t.Fatalf("INFO section %q out of order:\n%s", sec, payload)
		}
		pos = at
	}
	for _, ln := range strings.Split(strings.TrimSuffix(payload, "\r\n"), "\r\n") {
		if strings.HasPrefix(ln, "# ") {
			continue
		}
		if k, v, ok := strings.Cut(ln, ":"); !ok || k == "" || v == "" {
			t.Fatalf("malformed INFO line %q", ln)
		}
	}
	for _, wantLn := range []string{
		"connected_clients:1\r\n",
		"total_connections_received:1\r\n",
		"total_commands_processed:4\r\n",
		"total_reads_processed:2\r\n",
		"total_writes_processed:2\r\n",
		"fastlane_reads_processed:2\r\n",
		"keyspace_hits:1\r\n",
		"keyspace_misses:1\r\n",
		"protocol_errors:0\r\n",
		"ido_crashes:0\r\n",
		"role:none\r\n",
		"repl_lag_records:0\r\n",
	} {
		if !strings.Contains(payload, wantLn) {
			t.Errorf("INFO missing %q:\n%s", strings.TrimSuffix(wantLn, "\r\n"), payload)
		}
	}
	if !strings.Contains(payload, "ido_fences:") || strings.Contains(payload, "ido_fences:0\r\n") {
		t.Errorf("INFO ido_fences missing or zero after persistent ops:\n%s", payload)
	}

	// INFO <section> is accepted (full body), INFO a b is an arity error.
	if _, err := c.Write([]byte("*2\r\n$4\r\ninfo\r\n$6\r\nserver\r\n")); err != nil {
		t.Fatalf("INFO server: %v", err)
	}
	if p2 := readBulk(t, c); !bytes.Contains(p2, []byte("# Persistence")) {
		t.Errorf("INFO <section> did not return the full body")
	}
	runSteps(t, c, []step{{"INFO a b\r\n", "-ERR wrong number of arguments\r\n"}})
}
