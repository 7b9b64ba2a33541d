package server

import (
	"runtime"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// TestFastGetWaitsOnEpoch drives the fast lane's odd-epoch wait
// directly: the test goroutine holds a shard's epoch odd, as the
// pipeline does while a mutating FASE is in flight, and a reader calls
// fastGet on a stored key. If the epoch goes even while the reader
// waits, the read succeeds after exactly one wait and no fallback; if
// it stays odd (a writer that died mid-FASE), the reader gives up on
// its own bound and falls back once.
func TestFastGetWaitsOnEpoch(t *testing.T) {
	setup := func(t *testing.T) (*shard, uint64, uint64) {
		reg := region.Create(1<<22, nvm.Config{Size: 1 << 22})
		lm := locks.NewManager(reg)
		rt := core.New(core.DefaultConfig())
		if err := rt.Attach(reg, lm); err != nil {
			t.Fatalf("attach: %v", err)
		}
		store, err := NewMcStore(&memcache.Env{Reg: reg, LM: lm}, 1, 64)
		if err != nil {
			t.Fatalf("new store: %v", err)
		}
		th, err := rt.NewThread()
		if err != nil {
			t.Fatalf("thread: %v", err)
		}
		k0, k1 := padKeyWords([]byte("k"))
		store.Set(th, 0, k0, k1, 42)
		srv, err := New(rt, store, Config{}, nil)
		if err != nil {
			t.Fatalf("new server: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.shards[0], k0, k1
	}
	type result struct {
		v       uint64
		hit, ok bool
	}
	read := func(sh *shard, k0, k1 uint64) <-chan result {
		out := make(chan result, 1)
		go func() {
			var c conn
			v, hit, ok := c.fastGet(sh, k0, k1)
			out <- result{v, hit, ok}
		}()
		return out
	}

	t.Run("write finishes", func(t *testing.T) {
		sh, k0, k1 := setup(t)
		sh.seq.Add(1) // a write in flight
		got := read(sh, k0, k1)
		for sh.fastParks.Load() == 0 {
			runtime.Gosched()
		}
		sh.seq.Add(1) // the write finished while the reader waits
		r := <-got
		if !r.ok || !r.hit || r.v != 42 {
			t.Fatalf("fastGet = (%d, hit %v, ok %v), want (42, true, true)", r.v, r.hit, r.ok)
		}
		if parks, falls := sh.fastParks.Load(), sh.fastFalls.Load(); parks != 1 || falls != 0 {
			t.Fatalf("parks=%d falls=%d, want 1/0", parks, falls)
		}
	})

	t.Run("writer never finishes", func(t *testing.T) {
		sh, k0, k1 := setup(t)
		sh.seq.Add(1) // never bumped even again
		start := time.Now()
		select {
		case r := <-read(sh, k0, k1):
			if r.ok {
				t.Fatalf("fastGet served a read under an odd epoch: %+v", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("fastGet still waiting on a stuck epoch after 10s")
		}
		if parks, falls := sh.fastParks.Load(), sh.fastFalls.Load(); parks != 4 || falls != 1 {
			t.Fatalf("parks=%d falls=%d, want 4/1 (one wait per attempt, then the slot path)", parks, falls)
		}
		t.Logf("gave up after %v", time.Since(start))
	})
}
