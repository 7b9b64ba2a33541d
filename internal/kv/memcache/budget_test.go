package memcache

import (
	"testing"

	"github.com/ido-nvm/ido/internal/core"
)

// TestMemcacheEventBudget pins the persist events one solo iDO thread
// pays per cache operation: persist fences, cache-line write-backs and
// non-temporal stores (the recovery_pc publishes), exactly. The device
// counts repeat bit for bit on a single-threaded history, so any change
// that adds a fence or a write-back to a FASE fails here and has to
// change this table — which is also the per-FASE cost split of
// DESIGN.md ("Event budget"), kept verbatim.
//
// The scene: 64 buckets, keys 1..8 resident and inserted in that order
// (key 8 is the LRU head, key 1 the tail), every chain one item long.
// Fences are layout-independent; write-backs depend on which lines an
// op dirties, so each row names the item it touches. SET miss, DELETE
// hit and EvictOne include the allocator's own persist events (one fence
// each). A FASE that stores pays four fences — its publish, the owed one
// at its first store, its data, its recovery_pc clear — and two NT
// stores; one that stores nothing (a DELETE or INCR miss) pays neither,
// only the write-backs of its lock record and slot clear.
func TestMemcacheEventBudget(t *testing.T) {
	env := newEnv(t, 1<<20)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(env.Reg, env.LM); err != nil {
		t.Fatal(err)
	}
	c, _, err := New(env, 64)
	if err != nil {
		t.Fatal(err)
	}
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	k1 := func(k uint64) uint64 { return k ^ 0xABCD }
	for k := uint64(1); k <= 8; k++ {
		c.Set(th, k, k1(k), k)
	}

	type budget struct{ fences, flushes, ntstores uint64 }
	for _, tc := range []struct {
		name string
		op   func()
		want budget
	}{
		{"GET hit (key 4)", func() { c.Get(th, 4, k1(4)) }, budget{4, 7, 2}},
		{"GET miss", func() { c.Get(th, 99, k1(99)) }, budget{4, 5, 2}},
		{"SET hit (key 4, mid-LRU)", func() { c.Set(th, 4, k1(4), 44) }, budget{4, 10, 2}},
		{"SET miss (key 9)", func() { c.Set(th, 9, k1(9), 9) }, budget{5, 10, 2}},
		{"DELETE hit (key 5, mid-LRU)", func() { c.Delete(th, 5, k1(5)) }, budget{5, 10, 2}},
		{"DELETE miss", func() { c.Delete(th, 99, k1(99)) }, budget{0, 2, 0}},
		{"INCR hit (key 6)", func() { c.Incr(th, 6, k1(6), 1, false) }, budget{4, 5, 2}},
		{"INCR miss", func() { c.Incr(th, 99, k1(99), 1, false) }, budget{0, 2, 0}},
		{"Touch hit (key 6)", func() { c.Touch(th, 6, k1(6), 3, 2) }, budget{4, 7, 2}},
		{"Touch miss", func() { c.Touch(th, 99, k1(99), 3, 0) }, budget{4, 6, 2}},
		{"EvictOne (key 1, LRU tail)", func() { c.EvictOne(th) }, budget{5, 8, 2}},
	} {
		before := env.Reg.Dev.Stats()
		tc.op()
		after := env.Reg.Dev.Stats()
		got := budget{after.Fences - before.Fences, after.Flushes - before.Flushes, after.NTStores - before.NTStores}
		if got != tc.want {
			t.Errorf("%-32s fences %d  write-backs %d  NT stores %d   (table has %d %d %d)",
				tc.name, got.fences, got.flushes, got.ntstores, tc.want.fences, tc.want.flushes, tc.want.ntstores)
		}
	}
}
