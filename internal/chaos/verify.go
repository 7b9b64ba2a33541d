package chaos

import (
	"fmt"
	"sort"

	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// Exported post-recovery image checkers. The cachemix driver grew these
// as unexported methods; the networked server's crash-mid-serve smoke
// (internal/server) needs the same structural verification over every
// shard of a recovered store, so they live here as standalone functions
// over the raw device image. They deliberately bypass FASE accessors —
// they audit what recovery actually left in the persistence domain, the
// way the recovery passes themselves read it.

// WalkCacheChains visits every item of every bucket chain of a
// kv/memcache table image rooted at tbl.
func WalkCacheChains(dev *nvm.Device, tbl uint64, fn func(item uint64) error) error {
	n := dev.Load64(tbl + 8)
	if n == 0 || n > walkBound || n&(n-1) != 0 {
		return fmt.Errorf("cache header: implausible bucket count %d", n)
	}
	for b := uint64(0); b < n; b++ {
		steps := 0
		for item := dev.Load64(tbl + cTArray + b*8); item != 0; item = dev.Load64(item + cIHNext) {
			if steps++; steps > walkBound {
				return fmt.Errorf("bucket %d: chain exceeds %d items (cycle?)", b, walkBound)
			}
			if err := fn(item); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckCacheImage verifies the structural contract every completed
// recovery must restore on a kv/memcache table: no duplicate keys, an
// item count matching the chains, and an LRU list that is a consistent
// double-linking of exactly the chained items.
func CheckCacheImage(dev *nvm.Device, tbl uint64) error {
	chained := map[uint64]bool{}
	// Cache keys are two words; dedupe on the full (k0,k1) identity the
	// store itself uses, or distinct keys sharing k0 would be reported
	// as duplicates.
	seen := map[[2]uint64]bool{}
	err := WalkCacheChains(dev, tbl, func(item uint64) error {
		k := [2]uint64{dev.Load64(item + cIK0), dev.Load64(item + cIK1)}
		if seen[k] {
			return fmt.Errorf("duplicate key (%d,%d)", k[0], k[1])
		}
		seen[k] = true
		chained[item] = true
		return nil
	})
	if err != nil {
		return err
	}
	if cnt := dev.Load64(tbl + cTCount); cnt != uint64(len(chained)) {
		return fmt.Errorf("count = %d, chains hold %d items", cnt, len(chained))
	}
	// LRU: head-to-tail walk must visit each chained item exactly once,
	// with consistent back links, ending at the recorded tail.
	var last uint64
	visited := 0
	for item := dev.Load64(tbl + cTLRUHead); item != 0; item = dev.Load64(item + cILNext) {
		if visited++; visited > walkBound {
			return fmt.Errorf("LRU list exceeds %d items (cycle?)", walkBound)
		}
		if !chained[item] {
			return fmt.Errorf("LRU item %#x not on any chain", item)
		}
		if p := dev.Load64(item + cILPrev); p != last {
			return fmt.Errorf("LRU item %#x: prev = %#x, want %#x", item, p, last)
		}
		last = item
	}
	if tail := dev.Load64(tbl + cTLRUTail); tail != last {
		return fmt.Errorf("LRU tail = %#x, walk ended at %#x", tail, last)
	}
	if visited != len(chained) {
		return fmt.Errorf("LRU lists %d items, chains hold %d", visited, len(chained))
	}
	return nil
}

// CheckCacheLockFree verifies that the cache lock at the head of a
// kv/memcache table is free after recovery (recovery must release every
// FASE lock it reacquired).
func CheckCacheLockFree(dev *nvm.Device, lm *locks.Manager, tbl uint64) error {
	holder := dev.Load64(tbl)
	if holder == 0 {
		return fmt.Errorf("cache lock holder is zero")
	}
	l := lm.ByHolder(holder)
	if !l.TryAcquire() {
		return fmt.Errorf("cache lock (holder %#x) still held", holder)
	}
	l.Release()
	return nil
}

// Redis table/entry field offsets, mirrored from the kv/redis layout for
// the raw-device walk (same auditing stance as the cache offsets above).
const (
	rTBuckets = 0
	rTCount   = 8
	rTArray   = 64
	rEKey     = 0
	rENext    = 16
)

// CheckRedisImage verifies a kv/redis dictionary image rooted at tbl: a
// plausible header, acyclic chains, no duplicate keys, and an entry
// count matching the chains.
func CheckRedisImage(dev *nvm.Device, tbl uint64) error {
	n := dev.Load64(tbl + rTBuckets)
	if n == 0 || n > walkBound || n&(n-1) != 0 {
		return fmt.Errorf("redis header: implausible bucket count %d", n)
	}
	seen := map[uint64]bool{}
	entries := 0
	for b := uint64(0); b < n; b++ {
		steps := 0
		for e := dev.Load64(tbl + rTArray + b*8); e != 0; e = dev.Load64(e + rENext) {
			if steps++; steps > walkBound {
				return fmt.Errorf("bucket %d: chain exceeds %d entries (cycle?)", b, walkBound)
			}
			k := dev.Load64(e + rEKey)
			if seen[k] {
				return fmt.Errorf("duplicate key %d", k)
			}
			seen[k] = true
			entries++
		}
	}
	if cnt := dev.Load64(tbl + rTCount); cnt != uint64(entries) {
		return fmt.Errorf("count = %d, chains hold %d entries", cnt, entries)
	}
	return nil
}

// HeapLeak holds a recovered region's heap against what can still be
// reached: it reports the allocated blocks, and their bytes, that hold
// none of the addresses in reach (the application's own blocks: tables,
// chained items, lock holders) and no per-thread log of a runtime's list
// (iDO's, Mnemosyne's and NVThreads', the three the leaking workloads
// run on). The allocator's own count is checked against the same walk,
// so allocated bytes == reachable + leaked holds exactly. A block leaks
// when a crash lands between its Alloc and the store that links it, or
// between its unlinking FASE and the Free after it.
func HeapLeak(reg *region.Region, reach []uint64) (blocks int, bytes uint64, err error) {
	logs, err := idolog.Inspect(reg)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range logs {
		reach = append(reach, e.LogAddr)
	}
	const baselineLogNext = 16 // both baselines chain their logs through word 2
	for _, root := range []int{region.RootMnemosyneHead, region.RootNVThreadsHead} {
		for p, n := reg.Root(root), 0; p != 0; p = reg.Dev.Load64(p + baselineLogNext) {
			if n++; n > walkBound {
				return 0, 0, fmt.Errorf("log list of root %d exceeds %d logs (cycle?)", root, walkBound)
			}
			reach = append(reach, p)
		}
	}
	sort.Slice(reach, func(i, j int) bool { return reach[i] < reach[j] })
	err = reg.Alloc.Audit(func(blk, size uint64) {
		i := sort.Search(len(reach), func(i int) bool { return reach[i] > blk })
		if i == len(reach) || reach[i] >= blk+size {
			blocks++
			bytes += size
		}
	})
	return blocks, bytes, err
}
