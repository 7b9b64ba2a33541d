package chaos

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

const cacheBuckets = 4

// cacheOps is the forward script: the delete-heavy churn of Fig. 5c as
// a fixed, deterministic sequence (no rng: the schedule must replay
// bit-for-bit). It covers every Set/Get/Delete region at least once —
// miss insert, found update (with its LRU move), hit and miss Gets, and
// found and miss Deletes with their unchain / LRU-unlink / count FASEs.
var cacheOps = []struct {
	kind byte // 's'et, 'g'et, 'd'elete
	k    uint64
	v    uint64
}{
	{'s', 1, 100}, // miss insert
	{'s', 2, 200}, // miss insert
	{'s', 1, 101}, // found update: overwrite + LRU move to front
	{'g', 2, 0},   // hit
	{'d', 1, 0},   // delete found: unchain + LRU unlink + count
	{'g', 1, 0},   // miss
	{'s', 3, 300}, // insert
	{'d', 4, 0},   // delete miss: pure-scan release path
	{'d', 2, 0},   // delete found
	{'s', 4, 400}, // insert
}

// cacheKey1 derives the second key word, matching the Fig. 5 encoding.
func cacheKey1(k0 uint64) uint64 { return k0 ^ 0x5A5A }

// cacheDriver runs the Fig. 5 memcached application under the harness
// with the delete-heavy mix, so the delete FASEs' unchain, LRU-unlink,
// and count-decrement regions get the same crash-point coverage as the
// counter and map workloads. Restricted to the runtimes whose recovery
// reconstructs (or wholly replays) the in-flight FASE — a half-applied
// unlink is a structural violation here, not a bounded counter deficit.
type cacheDriver struct {
	nativeBase
	env   *memcache.Env
	cache *memcache.Cache
	tbl   uint64
}

func (d *cacheDriver) prepare(seed int64) error {
	err := d.mount(region.Create(1<<20, nvm.Config{}))
	if err != nil {
		return err
	}
	d.env = &memcache.Env{Reg: d.reg, LM: d.lm}
	if d.cache, d.tbl, err = memcache.New(d.env, cacheBuckets); err != nil {
		return err
	}
	d.reg.SetRoot(rootChaosCache, d.tbl)
	d.th, err = d.rt.NewThread()
	return err
}

func (d *cacheDriver) forward() error {
	for _, op := range cacheOps {
		k0, k1 := op.k, cacheKey1(op.k)
		switch op.kind {
		case 's':
			d.cache.Set(d.th, k0, k1, op.v)
		case 'g':
			d.cache.Get(d.th, k0, k1)
		case 'd':
			d.cache.Delete(d.th, k0, k1)
		}
	}
	return nil
}

func (d *cacheDriver) attach(reg *region.Region) error {
	if err := d.mount(reg); err != nil {
		return err
	}
	d.env = &memcache.Env{Reg: reg, LM: d.lm}
	d.tbl = reg.Root(rootChaosCache)
	d.cache = memcache.Attach(d.env, d.tbl)
	return nil
}

func (d *cacheDriver) recover() (persist.RecoveryStats, error) {
	rr := persist.NewResumeRegistry()
	memcache.Register(rr, d.env)
	return d.rt.Recover(rr)
}

// walkChains visits every item of every bucket chain, first pinning the
// bucket count to the driver's known geometry (memcache's walker only
// bounds-checks it).
func (d *cacheDriver) walkChains(fn func(item uint64) error) error {
	if n := memcache.ReadHeader(d.reg.Dev, d.tbl).Buckets; n != cacheBuckets {
		return fmt.Errorf("cache header: %d buckets, want %d", n, cacheBuckets)
	}
	return memcache.WalkCacheChains(d.reg.Dev, d.tbl, fn)
}

func (d *cacheDriver) observe() (map[string]uint64, error) {
	h := memcache.ReadHeader(d.reg.Dev, d.tbl)
	out := map[string]uint64{"count": h.Count, "sets": h.CmdSet, "gets": h.CmdGet, "hits": h.Hits}
	err := d.walkChains(func(item uint64) error {
		k0, _, v := memcache.ReadItem(d.reg.Dev, item)
		out[fmt.Sprintf("k%d", k0)] = v
		return nil
	})
	return out, err
}

// invariants checks the structural contract every completed recovery
// must restore (see memcache.CheckCacheImage), after pinning the geometry.
func (d *cacheDriver) invariants() error {
	if n := memcache.ReadHeader(d.reg.Dev, d.tbl).Buckets; n != cacheBuckets {
		return fmt.Errorf("cache header: %d buckets, want %d", n, cacheBuckets)
	}
	return memcache.CheckCacheImage(d.reg.Dev, d.tbl)
}

func (d *cacheDriver) locksFree() error {
	return memcache.CheckCacheLockFree(d.reg.Dev, d.lm, d.tbl)
}

// heap names what the cache still reaches: its table, the holder of its
// lock, and every chained item.
func (d *cacheDriver) heap() ([]uint64, error) {
	reach := []uint64{d.tbl, d.reg.Dev.Load64(d.tbl)}
	err := d.walkChains(func(item uint64) error {
		reach = append(reach, item)
		return nil
	})
	return reach, err
}
