// Package memcache implements a Memcached-1.2.4-like key-value cache on
// persistent memory, the Fig. 5 application of the iDO paper: a chained
// hash table plus an LRU list, protected by one coarse cache lock (the
// locking structure that made 1.2.4 notorious for scaling to only a few
// threads, §V-A). Keys are 16 bytes (two words), values 8 bytes, matching
// the paper's memaslap configuration.
//
// Every operation is one lock-inferred FASE in the shape the compiler's
// hitting-set pass (§IV-A) produces once loads are hoisted above the
// first store: a load-only entry region after the acquire — counters,
// bucket, chain scan, the found item's links, the LRU head, the
// allocation — then ONE cut, then a store-only region that ends in the
// release. A store-only region whose every input is a logged register is
// trivially idempotent, the load-only region simply re-runs its scan, and
// since nothing is stored before the cut the runtime has nothing to
// recover there either (core's rule 3): a miss that stores nothing costs
// no fence at all. No boundary precedes the FASE's final release: the
// final-unlock protocol fences the region's data and clears recovery_pc
// before the mutex is handed over, so resumption only ever re-executes
// while the lock is still privately held.
//
// Like real memcached, every operation also maintains stats counters
// (cmd_get/cmd_set/get_hits) and GET touches the item's access time.
// These read-modify-writes are antidependences, but the one cut severs
// ALL of them: the counters are read in the entry region and written in
// the exit region, so iDO pays zero extra boundaries while per-store
// loggers pay a persist fence for each — a large part of the paper's
// Fig. 5 gap.
//
// Get does not move items in the LRU list, mirroring memcached's
// ITEM_UPDATE_INTERVAL batching of LRU reordering.
//
// Register-slot plan for cache FASEs:
//
//	r0 = table  r1..r2 = key words  r3 = value  r4 = item
//	r5 = item's LRU prev / count (insert) / unchain position (delete)
//	r6 = item's LRU next / bucket head address (insert) / hash next (delete)
//	r7 = LRU head or cmd_get  r8 = chain head (insert) / LRU prev (delete)
//	r9 = cmd_set, get-hits or (delete) LRU next
//	r10 = get hit flag / incr direction / count (delete)
package memcache

import (
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Table layout (bytes).
const (
	tLock    = 0  // lock holder
	tBuckets = 8  // bucket count (power of two)
	tLRUHead = 16 // most recently used
	tLRUTail = 24 // least recently used
	tCount   = 32
	tCmdGet  = 40 // stats: GET operations served
	tCmdSet  = 48 // stats: SET operations served
	tHits    = 56 // stats: GET hits
	tArray   = 64 // bucket pointers
)

// Item layout.
const (
	iK0    = 0
	iK1    = 8
	iVal   = 16
	iHNext = 24 // hash-chain link
	iLPrev = 32 // LRU neighbors (toward head)
	iLNext = 40 // (toward tail)
	iTime  = 48 // last-access logical time (memcached's it->time)
	iSize  = 56
)

// Region IDs (0x25 block).
const (
	ridBase     = 0x25 << 16
	ridSetEntry = ridBase + 1  // after lock: every load of a SET, the allocation
	ridPush2    = ridBase + 3  // update: value, LRU move to front, cmd_set, release
	ridSetIns2  = ridBase + 4  // insert: item, chain head, count, LRU push, cmd_set, release
	ridGetEntry = ridBase + 7  // after lock: counters, bucket, scan
	ridGetRel   = ridBase + 8  // retire GET stats, touch item, release
	ridDelEntry = ridBase + 9  // after lock: bucket, scan, the item's links
	ridDelChain = ridBase + 11 // unchain, LRU unlink, decrement the count, release
	ridEvEntry  = ridBase + 13 // eviction: read the LRU tail, scan, its links
	ridIncrEnt  = ridBase + 14 // incr/decr: after lock, scan, read the value
	ridIncrUpd  = ridBase + 15 // incr/decr: publish the new value, release
	ridTouchEnt = ridBase + 16 // touch batch: after lock, read counters, scan
	ridTouchRel = ridBase + 17 // touch batch: retire counters + iTime, release
)

// Env bundles region and lock-manager access for the cache and its
// resume closures.
type Env struct {
	Reg *region.Region
	LM  *locks.Manager
}

// Cache is the persistent memcached-like store.
type Cache struct {
	env  *Env
	tbl  uint64
	lock *locks.Lock
}

// New creates a cache with nbuckets chains (rounded up to a power of 2).
// Size the table near the expected item count: memcached grows its hash
// power to keep chains around one item.
func New(env *Env, nbuckets int) (*Cache, uint64, error) {
	n := 1
	for n < nbuckets {
		n *= 2
	}
	l, err := env.LM.Create()
	if err != nil {
		return nil, 0, err
	}
	tbl, err := env.Reg.Alloc.Alloc(tArray + n*8)
	if err != nil {
		return nil, 0, err
	}
	dev := env.Reg.Dev
	dev.Store64(tbl+tLock, l.Holder())
	dev.Store64(tbl+tBuckets, uint64(n))
	dev.PersistRange(tbl, uint64(tArray+n*8))
	dev.Fence()
	return &Cache{env: env, tbl: tbl, lock: l}, tbl, nil
}

// Attach reopens a cache at its table address (the recovery path).
func Attach(env *Env, tbl uint64) *Cache {
	return &Cache{env: env, tbl: tbl, lock: env.LM.ByHolder(env.Reg.Dev.Load64(tbl + tLock))}
}

// hash mixes a 16-byte key into a bucket index.
func hash(k0, k1, n uint64) uint64 {
	h := k0*0x9E3779B97F4A7C15 ^ k1
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h & (n - 1)
}

func bucketAddr(t persist.Thread, tbl, k0, k1 uint64) uint64 {
	n := t.Load64(tbl + tBuckets)
	return tbl + tArray + hash(k0, k1, n)*8
}

// Set inserts or updates a key as one FASE under the cache lock.
func (c *Cache) Set(t persist.Thread, k0, k1, v uint64) {
	t.Lock(c.lock)
	t.Boundary(ridSetEntry, append(persist.Outs(t),
		persist.RV(0, c.tbl), persist.RV(1, k0), persist.RV(2, k1), persist.RV(3, v))...)
	setEntry(c.env, t, c.tbl, k0, k1, v)
}

// setEntry is region ridSetEntry, load-only: the cmd_set counter, the
// bucket, the LRU head, the chain scan, and then either the found item's
// LRU links or the count and a fresh item — everything the store-only
// region behind the one cut needs.
func setEntry(env *Env, t persist.Thread, tbl, k0, k1, v uint64) {
	cs := t.Load64(tbl + tCmdSet)
	ba := bucketAddr(t, tbl, k0, k1)
	hb := t.Load64(ba)
	head := t.Load64(tbl + tLRUHead)
	for cur := hb; cur != 0; cur = t.Load64(cur + iHNext) {
		if t.Load64(cur+iK0) == k0 && t.Load64(cur+iK1) == k1 {
			p, nx := t.Load64(cur+iLPrev), t.Load64(cur+iLNext)
			t.Boundary(ridPush2, append(persist.Outs(t),
				persist.RV(4, cur), persist.RV(5, p), persist.RV(6, nx),
				persist.RV(7, head), persist.RV(9, cs))...)
			setUpdate(env, t, tbl, v, cur, p, nx, head, cs)
			return
		}
	}
	cnt := t.Load64(tbl + tCount)
	item, err := env.Reg.Alloc.Alloc(iSize)
	if err != nil {
		panic(err)
	}
	t.Boundary(ridSetIns2, append(persist.Outs(t),
		persist.RV(4, item), persist.RV(5, cnt), persist.RV(6, ba),
		persist.RV(7, head), persist.RV(8, hb), persist.RV(9, cs))...)
	setInsert(env, t, tbl, k0, k1, v, item, cnt, ba, head, hb, cs)
}

// setUpdate is region ridPush2, store-only: overwrite the value, move the
// item to the LRU front, retire the cmd_set counter, release.
func setUpdate(env *Env, t persist.Thread, tbl, v, item, p, nx, head, cs uint64) {
	t.Store64(item+iVal, v)
	lruPush(t, tbl, item, lruUnlink(t, tbl, item, p, nx, head))
	t.Store64(tbl+tCmdSet, cs+1)
	release(env, t, tbl)
}

// setInsert is region ridSetIns2, store-only: build the item, publish it
// as the chain head, bump the count, push it on the LRU, retire the
// cmd_set counter, release.
func setInsert(env *Env, t persist.Thread, tbl, k0, k1, v, item, cnt, ba, head, hb, cs uint64) {
	t.Store64(item+iK0, k0)
	t.Store64(item+iK1, k1)
	t.Store64(item+iVal, v)
	t.Store64(item+iHNext, hb)
	t.Store64(ba, item)
	t.Store64(tbl+tCount, cnt+1)
	lruPush(t, tbl, item, head)
	t.Store64(tbl+tCmdSet, cs+1)
	release(env, t, tbl)
}

// lruUnlink detaches item from the LRU list given its links p and nx and
// the list head as the load-only region read them, and returns the head
// after the unlink. Store-only.
func lruUnlink(t persist.Thread, tbl, item, p, nx, head uint64) uint64 {
	if p == 0 && nx == 0 && head != item {
		return head // not in the list
	}
	if p == 0 {
		head = nx
		t.Store64(tbl+tLRUHead, nx)
	} else {
		t.Store64(p+iLNext, nx)
	}
	if nx == 0 {
		t.Store64(tbl+tLRUTail, p)
	} else {
		t.Store64(nx+iLPrev, p)
	}
	return head
}

// lruPush wires item in front of head h. Store-only.
func lruPush(t persist.Thread, tbl, item, h uint64) {
	t.Store64(item+iLPrev, 0)
	t.Store64(item+iLNext, h)
	if h != 0 {
		t.Store64(h+iLPrev, item)
	} else {
		t.Store64(tbl+tLRUTail, item)
	}
	t.Store64(tbl+tLRUHead, item)
}

// release performs the FASE's final unlock. No dedicated boundary
// precedes it: the final-unlock protocol fences the region's data and
// clears recovery_pc before the mutex is handed over.
func release(env *Env, t persist.Thread, tbl uint64) {
	t.Unlock(env.LM.ByHolder(env.Reg.Dev.Load64(tbl + tLock)))
}

// Get looks a key up, maintaining cmd_get/get_hits and the hit item's
// access time exactly as memcached does.
func (c *Cache) Get(t persist.Thread, k0, k1 uint64) (v uint64, ok bool) {
	t.Lock(c.lock)
	t.Boundary(ridGetEntry, append(persist.Outs(t),
		persist.RV(0, c.tbl), persist.RV(1, k0), persist.RV(2, k1))...)
	return getEntry(c.env, t, c.tbl, k0, k1)
}

func getEntry(env *Env, t persist.Thread, tbl, k0, k1 uint64) (uint64, bool) {
	cg := t.Load64(tbl + tCmdGet)
	hs := t.Load64(tbl + tHits)
	ba := bucketAddr(t, tbl, k0, k1)
	return getScanFrom(env, t, tbl, k0, k1, ba, t.Load64(ba), cg, hs)
}

func getScanFrom(env *Env, t persist.Thread, tbl, k0, k1, pp, cur, cg, hs uint64) (uint64, bool) {
	for {
		if cur == 0 {
			t.Boundary(ridGetRel, append(persist.Outs(t),
				persist.RV(7, cg), persist.RV(9, hs), persist.RV(10, 0))...)
			getRel(env, t, tbl, 0, cg, hs, 0)
			return 0, false
		}
		if t.Load64(cur+iK0) == k0 && t.Load64(cur+iK1) == k1 {
			v := t.Load64(cur + iVal)
			t.Boundary(ridGetRel, append(persist.Outs(t),
				persist.RV(4, cur),
				persist.RV(7, cg), persist.RV(9, hs), persist.RV(10, 1))...)
			getRel(env, t, tbl, cur, cg, hs, 1)
			return v, true
		}
		pp = cur + iHNext
		cur = t.Load64(pp)
	}
}

// getRel is region ridGetRel: retire the GET stats counters, touch the
// hit item's access time (memcached's it->time), and release. All the
// read-modify-write halves land here, absorbed by one cut.
func getRel(env *Env, t persist.Thread, tbl, item, cg, hs, hit uint64) {
	t.Store64(tbl+tCmdGet, cg+1)
	if hit != 0 {
		t.Store64(tbl+tHits, hs+1)
		t.Store64(item+iTime, cg)
	}
	release(env, t, tbl)
}

// Delete removes a key; it reports whether the key was present. The
// item's memory is released after the FASE completes (a crash in between
// leaks the block rather than risking a double free on re-execution).
func (c *Cache) Delete(t persist.Thread, k0, k1 uint64) bool {
	t.Lock(c.lock)
	t.Boundary(ridDelEntry, append(persist.Outs(t),
		persist.RV(0, c.tbl), persist.RV(1, k0), persist.RV(2, k1))...)
	item, found := delEntry(c.env, t, c.tbl, k0, k1)
	if found && item != 0 {
		c.env.Reg.Alloc.Free(item)
	}
	return found
}

func delEntry(env *Env, t persist.Thread, tbl, k0, k1 uint64) (uint64, bool) {
	pp := bucketAddr(t, tbl, k0, k1)
	for cur := t.Load64(pp); cur != 0; cur = t.Load64(pp) {
		if t.Load64(cur+iK0) == k0 && t.Load64(cur+iK1) == k1 {
			delFound(env, t, tbl, cur, pp)
			return cur, true
		}
		pp = cur + iHNext
	}
	release(env, t, tbl)
	return 0, false
}

// delFound finishes the load-only region of a delete or an eviction: read
// the item's chain and LRU links, the LRU head and the count, cut once,
// and run the store-only region.
func delFound(env *Env, t persist.Thread, tbl, item, pp uint64) {
	hn := t.Load64(item + iHNext)
	p, nx := t.Load64(item+iLPrev), t.Load64(item+iLNext)
	head := t.Load64(tbl + tLRUHead)
	cnt := t.Load64(tbl + tCount)
	t.Boundary(ridDelChain, append(persist.Outs(t),
		persist.RV(4, item), persist.RV(5, pp), persist.RV(6, hn), persist.RV(7, head),
		persist.RV(8, p), persist.RV(9, nx), persist.RV(10, cnt))...)
	delChain(env, t, tbl, item, pp, hn, head, p, nx, cnt)
}

// delChain is region ridDelChain, store-only: unchain the item, unlink it
// from the LRU, decrement the count, release.
func delChain(env *Env, t persist.Thread, tbl, item, pp, hn, head, p, nx, cnt uint64) {
	t.Store64(pp, hn)
	lruUnlink(t, tbl, item, p, nx, head)
	if cnt > 0 {
		t.Store64(tbl+tCount, cnt-1)
	}
	release(env, t, tbl)
}

// EvictOne removes the LRU tail item as one FASE; it reports whether a
// victim existed. Used by callers that bound the cache size. Like
// Delete, it releases the item's memory after the FASE completes, so a
// crash in between (or a resumed eviction) leaks the block rather than
// freeing it twice.
func (c *Cache) EvictOne(t persist.Thread) bool {
	t.Lock(c.lock)
	t.Boundary(ridEvEntry, append(persist.Outs(t),
		persist.RV(0, c.tbl))...)
	victim := evEntry(c.env, t, c.tbl)
	if victim != 0 {
		c.env.Reg.Alloc.Free(victim)
	}
	return victim != 0
}

// evEntry is region ridEvEntry: read the tail victim, locate its chain,
// scan to its position, then finish as a delete does. It returns the
// unlinked item, 0 when the cache was empty.
func evEntry(env *Env, t persist.Thread, tbl uint64) uint64 {
	victim := t.Load64(tbl + tLRUTail)
	if victim == 0 {
		release(env, t, tbl)
		return 0
	}
	pp := bucketAddr(t, tbl, t.Load64(victim+iK0), t.Load64(victim+iK1))
	for cur := t.Load64(pp); cur != 0 && cur != victim; cur = t.Load64(pp) {
		pp = cur + iHNext
	}
	delFound(env, t, tbl, victim, pp)
	return victim
}

// Incr adjusts an existing key's value by delta as one FASE: wrapping
// addition, or (dec) subtraction clamped at zero, exactly memcached's
// incr/decr semantics. A missing key is reported, not created.
func (c *Cache) Incr(t persist.Thread, k0, k1, delta uint64, dec bool) (uint64, bool) {
	var df uint64
	if dec {
		df = 1
	}
	t.Lock(c.lock)
	t.Boundary(ridIncrEnt, append(persist.Outs(t),
		persist.RV(0, c.tbl), persist.RV(1, k0), persist.RV(2, k1),
		persist.RV(3, delta), persist.RV(10, df))...)
	return incrEntry(c.env, t, c.tbl, k0, k1, delta, df)
}

// incrEntry is region ridIncrEnt: compute the bucket, scan the chain
// (pure reads), and on a hit read the old value and compute the new one
// — storing it antidepends on that load, so the store is the next
// region. A miss just releases.
func incrEntry(env *Env, t persist.Thread, tbl, k0, k1, delta, df uint64) (uint64, bool) {
	ba := bucketAddr(t, tbl, k0, k1)
	cur := t.Load64(ba)
	for {
		if cur == 0 {
			release(env, t, tbl)
			return 0, false
		}
		if t.Load64(cur+iK0) == k0 && t.Load64(cur+iK1) == k1 {
			old := t.Load64(cur + iVal)
			nv := old + delta
			if df != 0 {
				if old < delta {
					nv = 0
				} else {
					nv = old - delta
				}
			}
			t.Boundary(ridIncrUpd, append(persist.Outs(t),
				persist.RV(4, cur), persist.RV(3, nv))...)
			incrUpd(env, t, tbl, cur, nv)
			return nv, true
		}
		cur = t.Load64(cur + iHNext)
	}
}

// incrUpd is region ridIncrUpd: publish the new value and release.
// Store-only: trivially idempotent.
func incrUpd(env *Env, t persist.Thread, tbl, item, nv uint64) {
	t.Store64(item+iVal, nv)
	release(env, t, tbl)
}

// Touch retires a batch of sampled read stats as one FASE: cmd_get
// grows by gets, get_hits by hits, and if the key is still present its
// access time is refreshed. The server's read fast lane queues these
// off the read path (lossy sampling, like memcached's
// ITEM_UPDATE_INTERVAL) and the pipeline thread drains them here.
func (c *Cache) Touch(t persist.Thread, k0, k1, gets, hits uint64) {
	t.Lock(c.lock)
	t.Boundary(ridTouchEnt, append(persist.Outs(t),
		persist.RV(0, c.tbl), persist.RV(1, k0), persist.RV(2, k1),
		persist.RV(3, gets), persist.RV(5, hits))...)
	touchEntry(c.env, t, c.tbl, k0, k1, gets, hits)
}

// touchEntry is region ridTouchEnt: read both counters, scan for the
// item (pure reads), and compute the new counter values — retiring
// them antidepends on the loads, so the stores are the next region.
func touchEntry(env *Env, t persist.Thread, tbl, k0, k1, gets, hits uint64) {
	cg := t.Load64(tbl + tCmdGet)
	hs := t.Load64(tbl + tHits)
	ba := bucketAddr(t, tbl, k0, k1)
	cur := t.Load64(ba)
	for cur != 0 {
		if t.Load64(cur+iK0) == k0 && t.Load64(cur+iK1) == k1 {
			break
		}
		cur = t.Load64(cur + iHNext)
	}
	t.Boundary(ridTouchRel, append(persist.Outs(t),
		persist.RV(4, cur), persist.RV(7, cg+gets), persist.RV(9, hs+hits))...)
	touchRel(env, t, tbl, cur, cg+gets, hs+hits)
}

// touchRel is region ridTouchRel: retire the batched counters, refresh
// the item's access time, and release. Store-only: idempotent.
func touchRel(env *Env, t persist.Thread, tbl, item, ncg, nhs uint64) {
	t.Store64(tbl+tCmdGet, ncg)
	t.Store64(tbl+tHits, nhs)
	if item != 0 {
		t.Store64(item+iTime, ncg)
	}
	release(env, t, tbl)
}

// Count returns the item count (unsynchronized; tests and sizing only).
func (c *Cache) Count() uint64 { return c.env.Reg.Dev.Load64(c.tbl + tCount) }

// Register installs the cache's resume entries. The register slots carry
// every address a resumed region needs, so one registration serves all
// caches in the region.
func Register(rr *persist.ResumeRegistry, env *Env) {
	rr.Register(ridSetEntry, func(t persist.Thread, rf []uint64) {
		setEntry(env, t, rf[0], rf[1], rf[2], rf[3])
	})
	rr.Register(ridPush2, func(t persist.Thread, rf []uint64) {
		setUpdate(env, t, rf[0], rf[3], rf[4], rf[5], rf[6], rf[7], rf[9])
	})
	rr.Register(ridSetIns2, func(t persist.Thread, rf []uint64) {
		setInsert(env, t, rf[0], rf[1], rf[2], rf[3], rf[4], rf[5], rf[6], rf[7], rf[8], rf[9])
	})
	rr.Register(ridGetEntry, func(t persist.Thread, rf []uint64) {
		getEntry(env, t, rf[0], rf[1], rf[2])
	})
	rr.Register(ridGetRel, func(t persist.Thread, rf []uint64) {
		getRel(env, t, rf[0], rf[4], rf[7], rf[9], rf[10])
	})
	rr.Register(ridDelEntry, func(t persist.Thread, rf []uint64) {
		delEntry(env, t, rf[0], rf[1], rf[2])
	})
	rr.Register(ridDelChain, func(t persist.Thread, rf []uint64) {
		delChain(env, t, rf[0], rf[4], rf[5], rf[6], rf[7], rf[8], rf[9], rf[10])
	})
	rr.Register(ridEvEntry, func(t persist.Thread, rf []uint64) {
		evEntry(env, t, rf[0])
	})
	rr.Register(ridIncrEnt, func(t persist.Thread, rf []uint64) {
		incrEntry(env, t, rf[0], rf[1], rf[2], rf[3], rf[10])
	})
	rr.Register(ridIncrUpd, func(t persist.Thread, rf []uint64) {
		incrUpd(env, t, rf[0], rf[4], rf[3])
	})
	rr.Register(ridTouchEnt, func(t persist.Thread, rf []uint64) {
		touchEntry(env, t, rf[0], rf[1], rf[2], rf[3], rf[5])
	})
	rr.Register(ridTouchRel, func(t persist.Thread, rf []uint64) {
		touchRel(env, t, rf[0], rf[4], rf[7], rf[9])
	})
}
