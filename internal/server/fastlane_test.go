package server_test

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/server"
)

// Conformance for the lock-free read fast lane and cross-shard
// multi-gets: golden response ordering under both the
// fast lane and the forced slot path (the wire contract must not
// depend on which path served a key), incr/decr verb goldens, the
// per-shard eviction watermark, and the 16-reader/4-writer seqlock
// hammer with exact value invariants.

// fastModes runs a subtest twice: with the fast lane enabled (default)
// and with reads forced onto the slot path. Multi-get responses must
// be byte-identical either way.
func fastModes(t *testing.T, f func(t *testing.T, disable bool)) {
	for _, m := range []struct {
		name    string
		disable bool
	}{{"fast", false}, {"slot", true}} {
		t.Run(m.name, func(t *testing.T) { f(t, m.disable) })
	}
}

func TestServerMultiGetOrderingMemcache(t *testing.T) {
	getFences := map[bool]uint64{} // device fences the GET steps cost, by mode
	fastModes(t, func(t *testing.T, disable bool) {
		w := newWorldCfg(t, server.ProtoMemcache, 4, nvm.Config{Size: 1 << 22}, nil,
			func(c *server.Config) { c.DisableFastReads = disable })
		c := w.dial(t)
		runSteps(t, c, []step{
			{"set a 0 0 1\r\n1\r\n", "STORED\r\n"},
			{"set b 0 0 1\r\n2\r\n", "STORED\r\n"},
			{"set c 0 0 1\r\n3\r\n", "STORED\r\n"},
			{"set d 0 0 1\r\n4\r\n", "STORED\r\n"},
		})
		setFences := w.reg.Dev.Stats().Fences
		// Keys spread over 4 shards; misses interleaved at the front,
		// middle, and back. Responses come in request order with misses
		// elided — regardless of which shard, or which path, served each.
		runSteps(t, c, []step{
			{"get m0 a b m1 c d m2\r\n",
				"VALUE a 0 1\r\n1\r\nVALUE b 0 1\r\n2\r\nVALUE c 0 1\r\n3\r\nVALUE d 0 1\r\n4\r\nEND\r\n"},
			{"get d c b a\r\n",
				"VALUE d 0 1\r\n4\r\nVALUE c 0 1\r\n3\r\nVALUE b 0 1\r\n2\r\nVALUE a 0 1\r\n1\r\nEND\r\n"},
			{"get a a a\r\n",
				"VALUE a 0 1\r\n1\r\nVALUE a 0 1\r\n1\r\nVALUE a 0 1\r\n1\r\nEND\r\n"},
			{"get m0 m1 m2\r\n", "END\r\n"},
		})
		getFences[disable] = w.reg.Dev.Stats().Fences - setFences
		// The config decides the path: the slot path serves no fast get,
		// the default serves these (the connection has no write in flight).
		var st metrics.ServerStats
		w.srv.MetricsSnapshot(&st)
		if fast := st.Totals().FastGets; disable != (fast == 0) {
			t.Fatalf("DisableFastReads=%v served %d fast gets", disable, fast)
		}
	})
	if getFences[false] > getFences[true] {
		t.Fatalf("gets cost %d fences on the fast lane, %d on the slot path", getFences[false], getFences[true])
	}
}

func TestServerMultiGetOrderingRESP(t *testing.T) {
	fastModes(t, func(t *testing.T, disable bool) {
		w := newWorldCfg(t, server.ProtoRESP, 4, nvm.Config{Size: 1 << 22}, nil,
			func(c *server.Config) { c.DisableFastReads = disable })
		c := w.dial(t)
		runSteps(t, c, []step{
			{"SET k1 11\r\n", "+OK\r\n"},
			{"SET k3 33\r\n", "+OK\r\n"},
			// Array header + one reply per key, misses as null bulks, in
			// request order across shards.
			{"MGET k1 kx k3\r\n", "*3\r\n$2\r\n11\r\n$-1\r\n$2\r\n33\r\n"},
			{"MGET kx ky\r\n", "*2\r\n$-1\r\n$-1\r\n"},
			{"*3\r\n$4\r\nMGET\r\n$2\r\nk3\r\n$2\r\nk1\r\n", "*2\r\n$2\r\n33\r\n$2\r\n11\r\n"},
			// Single-key MGET still carries the array header; plain GET
			// never does.
			{"MGET k1\r\n", "*1\r\n$2\r\n11\r\n"},
			{"GET k1\r\n", "$2\r\n11\r\n"},
			{"MGET\r\n", "-ERR wrong number of arguments\r\n"},
		})
	})
}

func TestServerIncrDecrMemcache(t *testing.T) {
	w := newWorld(t, server.ProtoMemcache, 2, nvm.Config{Size: 1 << 22}, nil)
	c := w.dial(t)
	runSteps(t, c, []step{
		{"set n 0 0 1\r\n5\r\n", "STORED\r\n"},
		{"incr n 3\r\n", "8\r\n"},
		{"decr n 2\r\n", "6\r\n"},
		// memcache semantics: decr clamps at zero, incr wraps.
		{"decr n 100\r\n", "0\r\n"},
		{"set w 0 0 20\r\n18446744073709551615\r\n", "STORED\r\n"},
		{"incr w 2\r\n", "1\r\n"},
		// Misses are reported, never auto-created.
		{"incr nope 1\r\n", "NOT_FOUND\r\n"},
		{"decr nope 1\r\n", "NOT_FOUND\r\n"},
		{"get nope\r\n", "END\r\n"},
		{"incr n abc\r\n", "CLIENT_ERROR invalid numeric delta argument\r\n"},
		{"incr n\r\n", "ERROR\r\n"},
		{"incr n 1 noreply\r\n", ""},
		{"get n\r\n", "VALUE n 0 1\r\n1\r\nEND\r\n"},
	})
}

func TestServerIncrRESP(t *testing.T) {
	w := newWorld(t, server.ProtoRESP, 2, nvm.Config{Size: 1 << 22}, nil)
	c := w.dial(t)
	runSteps(t, c, []step{
		// Redis semantics: a missing key counts from zero.
		{"INCR c\r\n", ":1\r\n"},
		{"INCRBY c 41\r\n", ":42\r\n"},
		{"GET c\r\n", "$2\r\n42\r\n"},
		{"SET k 5\r\n", "+OK\r\n"},
		{"*2\r\n$4\r\nINCR\r\n$1\r\nk\r\n", ":6\r\n"},
		{"INCRBY k xyz\r\n", "-ERR value is not an integer or out of range\r\n"},
		{"INCR\r\n", "-ERR wrong number of arguments\r\n"},
		{"INCRBY k\r\n", "-ERR wrong number of arguments\r\n"},
	})
}

// TestServerEvictionWatermark holds a 1-shard store at MaxItems: every
// write past the watermark triggers pipeline-thread evictions, and a
// full sweep afterwards finds at most MaxItems survivors.
func TestServerEvictionWatermark(t *testing.T) {
	const maxItems, writes = 8, 40
	for _, proto := range []server.Proto{server.ProtoMemcache, server.ProtoRESP} {
		t.Run(proto.String(), func(t *testing.T) {
			w := newWorldCfg(t, proto, 1, nvm.Config{Size: 1 << 22}, nil,
				func(c *server.Config) { c.MaxItems = maxItems })
			c := w.dial(t)
			for i := 0; i < writes; i++ {
				if proto == server.ProtoMemcache {
					runSteps(t, c, []step{{fmt.Sprintf("set key%02d 0 0 2\r\n%02d\r\n", i, i), "STORED\r\n"}})
				} else {
					runSteps(t, c, []step{{fmt.Sprintf("SET key%02d %d\r\n", i, i), "+OK\r\n"}})
				}
			}
			live := 0
			br := bufio.NewReader(c)
			for i := 0; i < writes; i++ {
				if proto == server.ProtoMemcache {
					fmt.Fprintf(c, "get key%02d\r\n", i)
					line, err := br.ReadString('\n')
					if err != nil {
						t.Fatalf("get: %v", err)
					}
					if strings.HasPrefix(line, "VALUE ") {
						live++
						br.ReadString('\n') // value payload
						br.ReadString('\n') // END
					}
				} else {
					fmt.Fprintf(c, "GET key%02d\r\n", i)
					line, err := br.ReadString('\n')
					if err != nil {
						t.Fatalf("get: %v", err)
					}
					if line != "$-1\r\n" {
						live++
						br.ReadString('\n') // bulk payload
					}
				}
			}
			if live > maxItems {
				t.Fatalf("%d keys live, watermark is %d", live, maxItems)
			}
			var st metrics.ServerStats
			w.srv.MetricsSnapshot(&st)
			ev := st.Totals().Evictions
			if want := uint64(writes - maxItems); ev < want {
				t.Fatalf("%d evictions recorded, want >= %d", ev, want)
			}
			t.Logf("%s: %d live keys, %d evictions", proto, live, ev)
		})
	}
}

// TestFastReadHammer races 16 read-only connections against 4 writer
// connections over a small shared key set, with the race detector in
// CI. Writers publish values tagged key*2^32+round with round strictly
// increasing, so every reader can check the exact-value invariant: a
// hit must decode to (its key, a round some completed write produced)
// — a torn or half-visible FASE fails the check. Readers never write,
// so their connections' read-your-writes gates stay open and every get
// attempts the fast lane.
func TestFastReadHammer(t *testing.T) {
	const (
		writers = 4
		readers = 16
		keys    = 8
		rounds  = 400
		gets    = 600
	)
	w := newWorld(t, server.ProtoMemcache, 4, nvm.Config{Size: 1 << 22}, nil)

	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c := w.dial(t)
			defer c.Close()
			bw := bufio.NewWriter(c)
			for r := 0; r < rounds; r++ {
				k := (wi*rounds + r) % keys
				v := strconv.FormatUint(uint64(k)<<32|uint64(r), 10)
				fmt.Fprintf(bw, "set hk%d 0 0 %d noreply\r\n%s\r\n", k, len(v), v)
				if r%32 == 31 {
					if err := bw.Flush(); err != nil {
						return
					}
				}
			}
			bw.Flush()
			// One replied op drains the pipeline before close.
			fmt.Fprintf(c, "get hk0\r\n")
			readUntil(t, c, "END\r\n")
		}(wi)
	}
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			c := w.dial(t)
			defer c.Close()
			br := bufio.NewReader(c)
			for g := 0; g < gets; g++ {
				k := (ri + g) % keys
				fmt.Fprintf(c, "get hk%d\r\n", k)
				line, err := br.ReadString('\n')
				if err != nil {
					t.Errorf("reader %d: %v", ri, err)
					return
				}
				if line == "END\r\n" {
					continue // not yet written
				}
				if !strings.HasPrefix(line, fmt.Sprintf("VALUE hk%d 0 ", k)) {
					t.Errorf("reader %d: unexpected reply line %q", ri, line)
					return
				}
				vline, err := br.ReadString('\n')
				if err != nil {
					t.Errorf("reader %d: %v", ri, err)
					return
				}
				v, perr := strconv.ParseUint(strings.TrimSuffix(vline, "\r\n"), 10, 64)
				if perr != nil {
					t.Errorf("reader %d: unparsable value %q", ri, vline)
					return
				}
				// Exact value invariant: tag matches the key, round is one
				// a writer could have completed.
				if int(v>>32) != k || uint32(v) >= rounds {
					t.Errorf("reader %d: key hk%d read torn/foreign value %d (tag %d round %d)",
						ri, k, v, v>>32, uint32(v))
					return
				}
				if end, err := br.ReadString('\n'); err != nil || end != "END\r\n" {
					t.Errorf("reader %d: bad END %q: %v", ri, end, err)
					return
				}
			}
		}(ri)
	}
	wg.Wait()

	var st metrics.ServerStats
	w.srv.MetricsSnapshot(&st)
	tot := st.Totals()
	if tot.FastGets == 0 {
		t.Fatalf("no gets took the fast lane (%d gets, %d fallbacks)", tot.Gets, tot.FastFallbacks)
	}
	if tot.Hits+tot.Misses != tot.Gets {
		t.Fatalf("hit/miss accounting broken: %d+%d != %d gets", tot.Hits, tot.Misses, tot.Gets)
	}
	t.Logf("%d gets: %d fast, %d fell back to slot path, %d hits", tot.Gets, tot.FastGets, tot.FastFallbacks, tot.Hits)
}
