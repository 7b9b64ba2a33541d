package chaos

import (
	"fmt"
	"maps"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// kvOp is one FASE of a kv sweep script.
type kvOp[S any] struct {
	name string
	run  func(s S, t persist.Thread)
}

// kvSweep is one kv store under the dense crash sweep: how to create it,
// the script, how to register its resume entries, and the check of a
// recovered image, which returns the image's observable state.
type kvSweep[S any] struct {
	block    uint64 // the store's region-ID block: its IDs are block+0..block+0xffff
	entries  int    // resume entries the store registers
	create   func(reg *region.Region, lm *locks.Manager) (S, uint64, error)
	ops      []kvOp[S]
	register func(rr *persist.ResumeRegistry, reg *region.Region, lm *locks.Manager)
	check    func(reg *region.Region, lm *locks.Manager, tbl uint64) (map[string]uint64, error)
}

// memcacheSweep covers every memcache FASE shape: Set insert and update,
// Get hit and miss, Delete hit and miss, Incr hit and miss, Touch and
// EvictOne.
var memcacheSweep = kvSweep[*memcache.Cache]{
	block:   0x25 << 16,
	entries: 6,
	create: func(reg *region.Region, lm *locks.Manager) (*memcache.Cache, uint64, error) {
		return memcache.New(&memcache.Env{Reg: reg, LM: lm}, cacheBuckets)
	},
	ops: []kvOp[*memcache.Cache]{
		{"set insert", func(c *memcache.Cache, t persist.Thread) { c.Set(t, 1, cacheKey1(1), 100) }},
		{"set insert", func(c *memcache.Cache, t persist.Thread) { c.Set(t, 2, cacheKey1(2), 200) }},
		{"set update", func(c *memcache.Cache, t persist.Thread) { c.Set(t, 1, cacheKey1(1), 101) }},
		{"get hit", func(c *memcache.Cache, t persist.Thread) { c.Get(t, 2, cacheKey1(2)) }},
		{"get miss", func(c *memcache.Cache, t persist.Thread) { c.Get(t, 9, cacheKey1(9)) }},
		{"delete hit", func(c *memcache.Cache, t persist.Thread) { c.Delete(t, 1, cacheKey1(1)) }},
		{"delete miss", func(c *memcache.Cache, t persist.Thread) { c.Delete(t, 9, cacheKey1(9)) }},
		{"incr hit", func(c *memcache.Cache, t persist.Thread) { c.Incr(t, 2, cacheKey1(2), 5, false) }},
		{"incr miss", func(c *memcache.Cache, t persist.Thread) { c.Incr(t, 9, cacheKey1(9), 5, false) }},
		{"touch", func(c *memcache.Cache, t persist.Thread) { c.Touch(t, 2, cacheKey1(2), 3, 2) }},
		{"set insert", func(c *memcache.Cache, t persist.Thread) { c.Set(t, 3, cacheKey1(3), 300) }},
		{"evict", func(c *memcache.Cache, t persist.Thread) { c.EvictOne(t) }},
	},
	register: func(rr *persist.ResumeRegistry, reg *region.Region, lm *locks.Manager) {
		memcache.Register(rr, &memcache.Env{Reg: reg, LM: lm})
	},
	check: func(reg *region.Region, lm *locks.Manager, tbl uint64) (map[string]uint64, error) {
		if err := memcache.CheckCacheImage(reg.Dev, tbl); err != nil {
			return nil, err
		}
		if err := memcache.CheckCacheLockFree(reg.Dev, lm, tbl); err != nil {
			return nil, err
		}
		return (&cacheDriver{reg: reg, tbl: tbl}).observe()
	},
}

// redisSweep covers every redis FASE that stores: Set insert and update,
// Del hit and miss, and Incr hit and miss.
var redisSweep = kvSweep[*redis.DB]{
	block:   0x26 << 16,
	entries: 3,
	create: func(reg *region.Region, _ *locks.Manager) (*redis.DB, uint64, error) {
		return redis.New(&redis.Env{Reg: reg}, 4)
	},
	ops: []kvOp[*redis.DB]{
		{"set insert", func(d *redis.DB, t persist.Thread) { d.Set(t, 1, 100) }},
		{"set insert", func(d *redis.DB, t persist.Thread) { d.Set(t, 2, 200) }},
		{"set update", func(d *redis.DB, t persist.Thread) { d.Set(t, 1, 101) }},
		{"del hit", func(d *redis.DB, t persist.Thread) { d.Del(t, 2) }},
		{"del miss", func(d *redis.DB, t persist.Thread) { d.Del(t, 9) }},
		{"incr hit", func(d *redis.DB, t persist.Thread) { d.Incr(t, 1, 5) }},
		{"incr miss", func(d *redis.DB, t persist.Thread) { d.Incr(t, 7, 3) }},
	},
	register: func(rr *persist.ResumeRegistry, reg *region.Region, _ *locks.Manager) {
		redis.Register(rr, &redis.Env{Reg: reg})
	},
	check: func(reg *region.Region, _ *locks.Manager, tbl uint64) (map[string]uint64, error) {
		if err := redis.CheckRedisImage(reg.Dev, tbl); err != nil {
			return nil, err
		}
		h := redis.ReadHeader(reg.Dev, tbl)
		out := map[string]uint64{"count": h.Count, "dirty": h.Dirty}
		err := redis.WalkEntries(reg.Dev, tbl, func(k, v uint64) error {
			out[fmt.Sprintf("k%d", k)] = v
			return nil
		})
		return out, err
	},
}

// open creates the store on a fresh device under iDO and one thread.
func (sw *kvSweep[S]) open(t *testing.T) (*region.Region, *locks.Manager, S, uint64, persist.Thread) {
	t.Helper()
	reg := region.Create(1<<20, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
	s, tbl, err := sw.create(reg, lm)
	if err != nil {
		t.Fatal(err)
	}
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	return reg, lm, s, tbl, th
}

// countResumes wraps every entry rr holds in the region-ID block base
// so that each call counts into n (one counter per entry, created on the
// first wrap).
func countResumes(rr *persist.ResumeRegistry, base uint64, n map[uint64]*atomic.Int64) *persist.ResumeRegistry {
	w := persist.NewResumeRegistry()
	for id := base; id < base+1<<16; id++ {
		fn, ok := rr.Lookup(id)
		if !ok {
			continue
		}
		c := n[id]
		if c == nil {
			c = new(atomic.Int64)
			n[id] = c
		}
		w.Register(id, func(t persist.Thread, rf []uint64) {
			c.Add(1)
			fn(t, rf)
		})
	}
	return w
}

// runKVSweep crashes the script at every device event (every stride-th
// under -short) under each adversary, recovers with the store's
// registry, checks the image and requires it to hold exactly the
// completed ops, with the interrupted one either whole or absent. core
// fails recovery when recovery_pc names a region with no entry. Across
// the sweep each registered entry must be resumed at least once.
func runKVSweep[S any](t *testing.T, sw kvSweep[S], stride int64) {
	// Probe: the state after each op and the script's event count.
	reg, lm, s, tbl, th := sw.open(t)
	states := make([]map[string]uint64, len(sw.ops)+1)
	var err error
	if states[0], err = sw.check(reg, lm, tbl); err != nil {
		t.Fatal(err)
	}
	events := int64(0)
	for i, op := range sw.ops {
		reg.Dev.ArmLocalCrash(1 << 40)
		op.run(s, th)
		events += 1<<40 - reg.Dev.LocalCrashBudgetRemaining()
		reg.Dev.ArmLocalCrash(-1)
		if states[i+1], err = sw.check(reg, lm, tbl); err != nil {
			t.Fatalf("probe after %s: %v", op.name, err)
		}
	}

	resumed := map[uint64]*atomic.Int64{}
	for _, mode := range []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll} {
		for budget := int64(0); budget < events; budget += stride {
			reg, _, s, tbl, th := sw.open(t)
			reg.Dev.ArmLocalCrash(budget)
			done := 0
			crashed, _ := catchCrash(func() error {
				for _, op := range sw.ops {
					op.run(s, th)
					done++
				}
				return nil
			})
			if !crashed {
				t.Fatalf("%v budget %d: every op completed inside the probed event count", mode, budget)
			}
			reg.Dev.ArmLocalCrash(-1)
			reg2, err := reg.Crash(mode, rand.New(rand.NewSource(budget)))
			if err != nil {
				t.Fatal(err)
			}
			lm2 := locks.NewManager(reg2)
			rt := core.New(core.DefaultConfig())
			if err := rt.Attach(reg2, lm2); err != nil {
				t.Fatal(err)
			}
			rr := persist.NewResumeRegistry()
			sw.register(rr, reg2, lm2)
			op := sw.ops[done].name
			if _, err := rt.Recover(countResumes(rr, sw.block, resumed)); err != nil {
				t.Fatalf("%v budget %d (crash in %s): recover: %v", mode, budget, op, err)
			}
			got, err := sw.check(reg2, lm2, tbl)
			if err != nil {
				t.Fatalf("%v budget %d (crash in %s): %v", mode, budget, op, err)
			}
			if !maps.Equal(got, states[done]) && !maps.Equal(got, states[done+1]) {
				t.Fatalf("%v budget %d (crash in %s): recovered %v, want %v or %v",
					mode, budget, op, got, states[done], states[done+1])
			}
		}
	}
	if len(resumed) != sw.entries {
		t.Errorf("registry holds %d resume entries, want %d", len(resumed), sw.entries)
	}
	for id, n := range resumed {
		if n.Load() == 0 {
			t.Errorf("region %#x never resumed across the sweep", id)
		}
	}
	t.Logf("swept %d crash points (stride %d) under each of 3 adversaries", events, stride)
}

// TestKVCrashSweepNeedsOnlyStoringRegions: the kv stores register a
// resume entry only for the regions that store, and that is enough for
// every crash point of every FASE shape.
func TestKVCrashSweepNeedsOnlyStoringRegions(t *testing.T) {
	stride := int64(pick(1, 7))
	t.Run("memcache", func(t *testing.T) { runKVSweep(t, memcacheSweep, stride) })
	t.Run("redis", func(t *testing.T) { runKVSweep(t, redisSweep, stride) })
}
