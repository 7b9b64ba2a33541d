package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/server"
)

// world is one in-process server universe: region, runtime, sharded
// store, server.
type world struct {
	reg   *region.Region
	lm    *locks.Manager
	rt    persist.Runtime
	store server.Store
	srv   *server.Server
}

func newWorld(t testing.TB, proto server.Proto, shards int, devcfg nvm.Config, tr *obs.Tracer) *world {
	t.Helper()
	return newWorldCfg(t, proto, shards, devcfg, tr, nil)
}

// newWorldCfg is newWorld with a server.Config hook (watermarks,
// disabling the read fast lane, ...) applied before the server starts.
func newWorldCfg(t testing.TB, proto server.Proto, shards int, devcfg nvm.Config, tr *obs.Tracer, mut func(*server.Config)) *world {
	t.Helper()
	w := &world{}
	devcfg.Tracer = tr
	w.reg = region.Create(1<<22, devcfg)
	w.lm = locks.NewManager(w.reg)
	w.rt = core.New(core.DefaultConfig())
	if err := w.rt.Attach(w.reg, w.lm); err != nil {
		t.Fatalf("attach: %v", err)
	}
	var err error
	if proto == server.ProtoMemcache {
		w.store, err = server.NewMcStore(&memcache.Env{Reg: w.reg, LM: w.lm}, shards, 64)
	} else {
		w.store, err = server.NewRespStore(&redis.Env{Reg: w.reg}, shards, 64)
	}
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	// Wire the collector the way cmd/idoserve does, so in-band stats see
	// device counters too.
	cfg := server.Config{Proto: proto, Metrics: metrics.NewCollector(tr, w.reg.Dev)}
	if mut != nil {
		mut(&cfg)
	}
	w.srv, err = server.New(w.rt, w.store, cfg, tr)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	t.Cleanup(func() { w.srv.Close() })
	return w
}

// dial connects one client to the server over an in-memory pipe.
func (w *world) dial(t testing.TB) net.Conn {
	t.Helper()
	client, srvEnd := loadgen.MemPipe(64 << 10)
	if err := w.srv.ServeConn(srvEnd); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	return client
}

// readFull reads exactly n bytes with a watchdog (MemPipe has no
// deadlines; a short read here should fail the test, not hang it).
func readFull(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(c, buf)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read %d bytes: %v (got %q)", n, err, buf)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out reading %d bytes", n)
	}
	return buf
}

// step is one golden exchange: write send, expect exactly want back.
type step struct {
	send string
	want string
}

func runSteps(t *testing.T, c net.Conn, steps []step) {
	t.Helper()
	for i, s := range steps {
		if _, err := c.Write([]byte(s.send)); err != nil {
			t.Fatalf("step %d: write: %v", i, err)
		}
		if s.want == "" {
			continue
		}
		got := readFull(t, c, len(s.want))
		if string(got) != s.want {
			t.Fatalf("step %d (%q): got %q, want %q", i, s.send, got, s.want)
		}
	}
}

// expectEOF asserts the server closed the connection.
func expectEOF(t *testing.T, c net.Conn) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		var b [1]byte
		_, err := c.Read(b[:])
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("expected connection close, got more bytes")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for connection close")
	}
}

func TestServerMemcacheGolden(t *testing.T) {
	w := newWorld(t, server.ProtoMemcache, 4, nvm.Config{Size: 1 << 22}, nil)
	c := w.dial(t)
	runSteps(t, c, []step{
		{"set foo 0 0 3\r\n123\r\n", "STORED\r\n"},
		{"get foo\r\n", "VALUE foo 0 3\r\n123\r\nEND\r\n"},
		{"get foo missing\r\n", "VALUE foo 0 3\r\n123\r\nEND\r\n"},
		{"set bar 1 7200 2 noreply\r\n77\r\n", ""},
		{"get bar foo\r\n", "VALUE bar 0 2\r\n77\r\nVALUE foo 0 3\r\n123\r\nEND\r\n"},
		{"gets foo\r\n", "VALUE foo 0 3\r\n123\r\nEND\r\n"},
		{"delete foo\r\n", "DELETED\r\n"},
		{"delete foo\r\n", "NOT_FOUND\r\n"},
		{"delete bar noreply\r\n", ""},
		{"get foo\r\n", "END\r\n"},
		{"version\r\n", "VERSION ido/1.0\r\n"},
		// Error vocabulary.
		{"bogus\r\n", "ERROR\r\n"},
		{"get\r\n", "ERROR\r\n"},
		{"get this-key-is-way-too-long-to-store\r\n", "CLIENT_ERROR bad key\r\n"},
		{"set k 0 0 abc\r\n", "CLIENT_ERROR bad command line format\r\n"},
		{"set k 0 0 3\r\nxyz\r\n", "CLIENT_ERROR bad data chunk\r\n"},
		{"set k 0 0 25\r\n1234567890123456789012345\r\n", "SERVER_ERROR object too large for cache\r\n"},
		{"set k 0 0 1 what\r\n", "ERROR\r\n"},
	})
	if _, err := c.Write([]byte("quit\r\n")); err != nil {
		t.Fatalf("quit: %v", err)
	}
	expectEOF(t, c)
}

func TestServerMemcachePipelined(t *testing.T) {
	w := newWorld(t, server.ProtoMemcache, 4, nvm.Config{Size: 1 << 22}, nil)
	c := w.dial(t)
	// One write carrying a whole pipelined burst; responses must come
	// back in order, whatever shards the keys landed on.
	// Values are canonical uint64 decimals (10..73) so the read-back
	// bytes match the stored bytes exactly.
	var req, want bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&req, "set key%02d 0 0 2\r\n%d\r\n", i, i+10)
		want.WriteString("STORED\r\n")
	}
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&req, "get key%02d\r\n", i)
		fmt.Fprintf(&want, "VALUE key%02d 0 2\r\n%d\r\nEND\r\n", i, i+10)
	}
	runSteps(t, c, []step{{req.String(), want.String()}})
}

func TestServerMemcacheFragmented(t *testing.T) {
	w := newWorld(t, server.ProtoMemcache, 2, nvm.Config{Size: 1 << 22}, nil)
	c := w.dial(t)
	// The same frames, torn at every awkward boundary: mid-token,
	// between the command line and its data, mid-CRLF.
	frags := []string{
		"se", "t frag 0 0 4", "\r", "\n", "12", "34", "\r\n",
		"get ", "fr", "ag\r\n",
		"delete fra", "g\r\n",
	}
	for _, f := range frags {
		if _, err := c.Write([]byte(f)); err != nil {
			t.Fatalf("write %q: %v", f, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := "STORED\r\nVALUE frag 0 4\r\n1234\r\nEND\r\nDELETED\r\n"
	got := readFull(t, c, len(want))
	if string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestServerRESPGolden(t *testing.T) {
	w := newWorld(t, server.ProtoRESP, 4, nvm.Config{Size: 1 << 22}, nil)
	c := w.dial(t)
	runSteps(t, c, []step{
		{"*3\r\n$3\r\nSET\r\n$2\r\nk1\r\n$2\r\n42\r\n", "+OK\r\n"},
		{"*2\r\n$3\r\nGET\r\n$2\r\nk1\r\n", "$2\r\n42\r\n"},
		{"GET k1\r\n", "$2\r\n42\r\n"}, // inline framing
		{"get k1\r\n", "$2\r\n42\r\n"}, // case-insensitive
		{"GET nope\r\n", "$-1\r\n"},    // miss
		{"SET k1 7\r\n", "+OK\r\n"},    // inline set
		{"GET k1\r\n", "$1\r\n7\r\n"},  // overwrite visible
		{"*2\r\n$3\r\nDEL\r\n$2\r\nk1\r\n", ":1\r\n"},
		{"DEL k1\r\n", ":0\r\n"},
		{"PING\r\n", "+PONG\r\n"},
		{"*1\r\n$4\r\nPING\r\n", "+PONG\r\n"},
		// Error vocabulary.
		{"SET k2\r\n", "-ERR wrong number of arguments\r\n"},
		{"SET k2 notanum\r\n", "-ERR value is not an integer or out of range\r\n"},
		{"FOO bar\r\n", "-ERR unknown command\r\n"},
		{"GET averylongkey\r\n", "-ERR key must be 1..8 printable bytes\r\n"},
	})
	if _, err := c.Write([]byte("QUIT\r\n")); err != nil {
		t.Fatalf("quit: %v", err)
	}
	got := readFull(t, c, len("+OK\r\n"))
	if string(got) != "+OK\r\n" {
		t.Fatalf("QUIT reply: got %q", got)
	}
	expectEOF(t, c)
}

func TestServerRESPFragmentedAndPipelined(t *testing.T) {
	w := newWorld(t, server.ProtoRESP, 4, nvm.Config{Size: 1 << 22}, nil)
	c := w.dial(t)
	// Array frame torn byte-by-byte across writes.
	frame := "*3\r\n$3\r\nSET\r\n$2\r\nkf\r\n$3\r\n999\r\n"
	for i := 0; i < len(frame); i++ {
		if _, err := c.Write([]byte{frame[i]}); err != nil {
			t.Fatalf("write byte %d: %v", i, err)
		}
	}
	got := readFull(t, c, len("+OK\r\n"))
	if string(got) != "+OK\r\n" {
		t.Fatalf("fragmented SET: got %q", got)
	}
	// Pipelined burst: two arrays and an inline command in one write.
	runSteps(t, c, []step{{
		"*2\r\n$3\r\nGET\r\n$2\r\nkf\r\n*2\r\n$3\r\nDEL\r\n$2\r\nkf\r\nPING\r\n",
		"$3\r\n999\r\n:1\r\n+PONG\r\n",
	}})
	// Framing corruption is fatal.
	if _, err := c.Write([]byte("*2\r\n$3\r\nGET\r\n$bad\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got = readFull(t, c, len(respProtoErr))
	if string(got) != respProtoErr {
		t.Fatalf("protocol error: got %q", got)
	}
	expectEOF(t, c)
}

const respProtoErr = "-ERR Protocol error\r\n"

// TestServerHammer16 drives 16 connections of mixed pipelined ops
// through both protocols (this is the CI race-hammer target).
func TestServerHammer16(t *testing.T) {
	for _, proto := range []server.Proto{server.ProtoMemcache, server.ProtoRESP} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			tr := obs.New(obs.Config{})
			w := newWorld(t, proto, 8, nvm.Config{Size: 1 << 22}, tr)
			lp := loadgen.ProtoMemcache
			if proto == server.ProtoRESP {
				lp = loadgen.ProtoRESP
			}
			res, err := loadgen.Run(loadgen.Config{
				Proto:    lp,
				Conns:    16,
				Pipeline: 8,
				Keys:     2048,
				SetPct:   40,
				DelPct:   20,
				Ops:      400,
				Seed:     1,
				Tracer:   tr,
			}, func() (net.Conn, error) {
				client, srvEnd := loadgen.MemPipe(64 << 10)
				if err := w.srv.ServeConn(srvEnd); err != nil {
					return nil, err
				}
				return client, nil
			})
			if err != nil {
				t.Fatalf("loadgen: %v", err)
			}
			if res.Errs != 0 {
				t.Fatalf("hammer: %d error responses (of %d ops)", res.Errs, res.Ops)
			}
			if want := uint64(16 * 400); res.Ops != want {
				t.Fatalf("hammer: %d ops acked, want %d", res.Ops, want)
			}
			if res.Hits == 0 || res.Misses == 0 {
				t.Fatalf("degenerate mix: hits=%d misses=%d", res.Hits, res.Misses)
			}
			if sum := tr.Hist(obs.HReqLatency); sum.Count == 0 {
				t.Fatalf("no HReqLatency observations")
			}
			st := w.srv.Stats()
			if st.Reqs < res.Ops || st.Batches == 0 || st.Batches > st.Reqs {
				t.Fatalf("stats look wrong: %+v vs %d client ops", st, res.Ops)
			}
			t.Logf("%s: %d ops, %d batches (%.1f reqs/batch), p50=%dns p99=%dns",
				proto, st.Reqs, st.Batches, float64(st.Reqs)/float64(st.Batches), res.P50, res.P99)
		})
	}
}

// TestServerConcurrentConnsSharedKeys has many conns racing on the same
// keys — exercising cross-connection ordering through shard pipelines —
// then verifies a quiesced read sees one of the written values.
func TestServerConcurrentConnsSharedKeys(t *testing.T) {
	w := newWorld(t, server.ProtoMemcache, 4, nvm.Config{Size: 1 << 22}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := w.dial(t)
			defer c.Close()
			var req bytes.Buffer
			for j := 0; j < 50; j++ {
				fmt.Fprintf(&req, "set shared 0 0 1 noreply\r\n%d\r\n", id)
			}
			req.WriteString("get shared\r\n")
			if _, err := c.Write(req.Bytes()); err != nil {
				return
			}
			buf := make([]byte, 256)
			io.ReadAtLeast(c, buf, len("VALUE shared 0 1\r\n0\r\nEND\r\n"))
		}(i)
	}
	wg.Wait()
	c := w.dial(t)
	runSteps(t, c, []step{{"get shared\r\n", "VALUE shared 0 1\r\n"}})
	got := readFull(t, c, len("X\r\nEND\r\n"))
	if got[0] < '0' || got[0] > '7' || string(got[1:]) != "\r\nEND\r\n" {
		t.Fatalf("final value: got %q", got)
	}
}

// TestShardRoutingSpreadsBuckets: request routing and the stores' bucket
// hashes must be decorrelated. Routed on the same low hash bits kv/memcache
// buckets on, shard s of n would only ever fill the buckets congruent to
// s mod n — here a quarter of each table, chains four times the sizing.
// Fill both stores through ShardOf and require every bucket of every
// shard to be occupied.
func TestShardRoutingSpreadsBuckets(t *testing.T) {
	const (
		shards, buckets = 4, 64
		keys            = 32 * shards * buckets // ~32 per bucket: an empty one is no accident
		bucketArray     = 64                    // kv/memcache and kv/redis tables both keep bucket heads from this offset
	)
	reg := region.Create(1<<24, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := server.NewMcStore(&memcache.Env{Reg: reg, LM: lm}, shards, buckets)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := server.NewRespStore(&redis.Env{Reg: reg}, shards, buckets)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store server.Store
		tbls  []uint64
	}{{"memcache", mc, mc.Tables()}, {"resp", rs, rs.Tables()}} {
		perShard := make([]int, shards)
		for i := 0; i < keys; i++ {
			k0, k1, ok := server.McKeyWords([]byte(fmt.Sprintf("k%07d", i)))
			if !ok {
				t.Fatal("bad key")
			}
			s := tc.store.ShardOf(k0, k1)
			perShard[s]++
			tc.store.Set(th, s, k0, k1, uint64(i))
		}
		for s, tbl := range tc.tbls {
			if perShard[s] < keys/shards/2 {
				t.Errorf("%s: shard %d got %d of %d keys", tc.name, s, perShard[s], keys)
			}
			for b := uint64(0); b < buckets; b++ {
				if reg.Dev.Load64(tbl+bucketArray+b*8) == 0 {
					t.Errorf("%s: shard %d bucket %d is empty after %d keys", tc.name, s, b, perShard[s])
				}
			}
		}
	}
}
