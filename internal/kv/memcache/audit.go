package memcache

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
)

// Image auditors, run by crash tests over a recovered device image. They
// read the persistence domain directly, not through FASEs, the way the
// recovery passes do. auditBound caps every walk, so a corrupted link
// fails the audit instead of hanging it.
const auditBound = 1 << 12

// Header is a table image's header words.
type Header struct{ Buckets, Count, CmdGet, CmdSet, Hits uint64 }

// ReadHeader reads the header of the table image at tbl.
func ReadHeader(dev *nvm.Device, tbl uint64) Header {
	ld := func(off uint64) uint64 { return dev.Load64(tbl + off) }
	return Header{ld(tBuckets), ld(tCount), ld(tCmdGet), ld(tCmdSet), ld(tHits)}
}

// ReadItem reads the key and value of the item image at item.
func ReadItem(dev *nvm.Device, item uint64) (k0, k1, v uint64) {
	return dev.Load64(item + iK0), dev.Load64(item + iK1), dev.Load64(item + iVal)
}

// WalkCacheChains visits every item of every bucket chain of the table
// image at tbl.
func WalkCacheChains(dev *nvm.Device, tbl uint64, fn func(item uint64) error) error {
	n := dev.Load64(tbl + tBuckets)
	if n == 0 || n > auditBound || n&(n-1) != 0 {
		return fmt.Errorf("cache header: implausible bucket count %d", n)
	}
	for b := uint64(0); b < n; b++ {
		steps := 0
		for item := dev.Load64(tbl + tArray + b*8); item != 0; item = dev.Load64(item + iHNext) {
			if steps++; steps > auditBound {
				return fmt.Errorf("bucket %d: chain exceeds %d items (cycle?)", b, auditBound)
			}
			if err := fn(item); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckCacheImage verifies the structural contract every completed
// recovery must restore on the table image at tbl: no duplicate keys, an
// item count matching the chains, and an LRU list that is a consistent
// double-linking of exactly the chained items.
func CheckCacheImage(dev *nvm.Device, tbl uint64) error {
	chained := map[uint64]bool{}
	// Dedupe on the full (k0,k1) identity the store itself uses, or
	// distinct keys sharing k0 would be reported as duplicates.
	seen := map[[2]uint64]bool{}
	err := WalkCacheChains(dev, tbl, func(item uint64) error {
		k := [2]uint64{dev.Load64(item + iK0), dev.Load64(item + iK1)}
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
	if cnt := dev.Load64(tbl + tCount); cnt != uint64(len(chained)) {
		return fmt.Errorf("count = %d, chains hold %d items", cnt, len(chained))
	}
	// LRU: head-to-tail walk must visit each chained item exactly once,
	// with consistent back links, ending at the recorded tail.
	var last uint64
	visited := 0
	for item := dev.Load64(tbl + tLRUHead); item != 0; item = dev.Load64(item + iLNext) {
		if visited++; visited > auditBound {
			return fmt.Errorf("LRU list exceeds %d items (cycle?)", auditBound)
		}
		if !chained[item] {
			return fmt.Errorf("LRU item %#x not on any chain", item)
		}
		if p := dev.Load64(item + iLPrev); p != last {
			return fmt.Errorf("LRU item %#x: prev = %#x, want %#x", item, p, last)
		}
		last = item
	}
	if tail := dev.Load64(tbl + tLRUTail); tail != last {
		return fmt.Errorf("LRU tail = %#x, walk ended at %#x", tail, last)
	}
	if visited != len(chained) {
		return fmt.Errorf("LRU lists %d items, chains hold %d", visited, len(chained))
	}
	return nil
}

// CheckCacheLockFree verifies that the cache lock of the table image at
// tbl is free (recovery must release every FASE lock it reacquired).
func CheckCacheLockFree(dev *nvm.Device, lm *locks.Manager, tbl uint64) error {
	holder := dev.Load64(tbl + tLock)
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
