// Package redis implements a Redis-like single-threaded key-value store
// on persistent memory, the Fig. 6 application of the iDO paper. Redis is
// single threaded, so failure-atomic regions are programmer-delineated
// (BeginDurable/EndDurable) rather than lock-inferred (§V-A). The store
// is a chained dictionary; writes (SET, DEL) run inside durable FASEs
// annotated with iDO region boundaries, while reads (GET) run outside any
// FASE — the paper's explanation for iDO's shrinking overhead on larger
// databases is precisely that these read paths are idempotent and nearly
// instrumentation-free.
//
// Every write FASE is load-first, store-last, like kv/memcache's: one
// load-only entry region (dirty counter, bucket, chain scan, count, the
// allocation), one cut, one store-only region that ends the FASE.
//
// Register-slot plan: r0 = table, r1 = key, r2 = value, r3 = entry,
// r4 = scan position (address of the pointer to the current entry),
// r5 = count, r6 = bucket head address (insert) / entry's successor
// (delete), r7 = dirty counter, r8 = chain head (insert).
//
// Like real Redis, every write bumps server.dirty. The counter is read in
// the entry region and written in the store-only region, so the
// read-modify-write antidependence is absorbed by the one cut.
package redis

import (
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Table layout.
const (
	tBuckets = 0
	tCount   = 8
	tDirty   = 16 // Redis's server.dirty: writes since the last snapshot
	tArray   = 64
)

// Entry layout.
const (
	eKey  = 0
	eVal  = 8
	eNext = 16
	eSize = 24
)

// Region IDs (0x26 block).
const (
	ridBase     = 0x26 << 16
	ridSetEntry = ridBase + 1
	ridSetUpd   = ridBase + 3 // overwrite value, retire dirty counter, end
	ridSetIns2  = ridBase + 5 // build the entry, publish the bucket head, bump count + dirty, end
	ridEnd      = ridBase + 7 // close the durable FASE
	ridDelEntry = ridBase + 8
	ridDelChain = ridBase + 10 // unchain, decrement the count, bump dirty, end
	ridIncrEnt  = ridBase + 12 // INCR: scan, read the value, compute
)

// Env gives the store and its resume closures region access.
type Env struct {
	Reg *region.Region
}

// DB is the persistent dictionary.
type DB struct {
	env *Env
	tbl uint64

	// cursor is the next bucket an EvictOne probe starts at. Volatile
	// and unsynchronized: eviction runs only on the owning pipeline
	// thread, and a stale cursor after a crash merely restarts the
	// rotation.
	cursor uint64
}

// New creates a store with nbuckets chains (rounded to a power of two).
func New(env *Env, nbuckets int) (*DB, uint64, error) {
	n := 1
	for n < nbuckets {
		n *= 2
	}
	tbl, err := env.Reg.Alloc.Alloc(tArray + n*8)
	if err != nil {
		return nil, 0, err
	}
	dev := env.Reg.Dev
	dev.Store64(tbl+tBuckets, uint64(n))
	dev.PersistRange(tbl, uint64(tArray+n*8))
	dev.Fence()
	return &DB{env: env, tbl: tbl}, tbl, nil
}

// Attach reopens a store at its table address.
func Attach(env *Env, tbl uint64) *DB { return &DB{env: env, tbl: tbl} }

func hash(k, n uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k & (n - 1)
}

func bucketAddr(t persist.Thread, tbl, key uint64) uint64 {
	n := t.Load64(tbl + tBuckets)
	return tbl + tArray + hash(key, n)*8
}

// Set inserts or updates a key inside a programmer-delineated FASE.
func (d *DB) Set(t persist.Thread, key, val uint64) {
	t.BeginDurable()
	t.Boundary(ridSetEntry, append(persist.Outs(t),
		persist.RV(0, d.tbl), persist.RV(1, key), persist.RV(2, val))...)
	setEntry(d.env, t, d.tbl, key, val)
}

// setEntry is region ridSetEntry, load-only: the dirty counter, the
// bucket, the chain scan, and on a miss the count and a fresh entry.
func setEntry(env *Env, t persist.Thread, tbl, key, val uint64) {
	dr := t.Load64(tbl + tDirty)
	ba := bucketAddr(t, tbl, key)
	hb := t.Load64(ba)
	for cur := hb; cur != 0; cur = t.Load64(cur + eNext) {
		if t.Load64(cur+eKey) == key {
			t.Boundary(ridSetUpd, append(persist.Outs(t),
				persist.RV(3, cur), persist.RV(7, dr))...)
			setUpdate(env, t, tbl, cur, val, dr)
			return
		}
	}
	setMiss(env, t, tbl, key, val, ba, hb, dr)
}

// setMiss finishes the load-only region of an inserting SET or INCR: read
// the count, allocate, cut once, and run the store-only region.
func setMiss(env *Env, t persist.Thread, tbl, key, val, ba, hb, dr uint64) {
	cnt := t.Load64(tbl + tCount)
	entry, err := env.Reg.Alloc.Alloc(eSize)
	if err != nil {
		panic(err)
	}
	t.Boundary(ridSetIns2, append(persist.Outs(t),
		persist.RV(3, entry), persist.RV(5, cnt), persist.RV(6, ba),
		persist.RV(7, dr), persist.RV(8, hb))...)
	setInsert(env, t, tbl, key, val, entry, cnt, ba, dr, hb)
}

// setUpdate is region ridSetUpd: the value overwrite and the dirty-
// counter retirement share the FASE's final region.
func setUpdate(env *Env, t persist.Thread, tbl, entry, val, dr uint64) {
	t.Store64(entry+eVal, val)
	t.Store64(tbl+tDirty, dr+1)
	end(env, t)
}

// setInsert is region ridSetIns2, store-only: build the entry, publish it
// as the bucket head, bump the count and the dirty counter, end.
func setInsert(env *Env, t persist.Thread, tbl, key, val, entry, cnt, ba, dr, hb uint64) {
	t.Store64(entry+eKey, key)
	t.Store64(entry+eVal, val)
	t.Store64(entry+eNext, hb)
	t.Store64(ba, entry)
	t.Store64(tbl+tCount, cnt+1)
	t.Store64(tbl+tDirty, dr+1)
	end(env, t)
}

func end(env *Env, t persist.Thread) { t.EndDurable() }

// Get reads a key outside any FASE (persistent reads are allowed outside
// FASEs, §II-B).
func (d *DB) Get(t persist.Thread, key uint64) (uint64, bool) {
	ba := bucketAddr(t, d.tbl, key)
	for cur := t.Load64(ba); cur != 0; cur = t.Load64(cur + eNext) {
		if t.Load64(cur+eKey) == key {
			return t.Load64(cur + eVal), true
		}
	}
	return 0, false
}

// Del removes a key inside a durable FASE; it reports presence. The
// entry's memory is released after the FASE completes.
func (d *DB) Del(t persist.Thread, key uint64) bool {
	t.BeginDurable()
	t.Boundary(ridDelEntry, append(persist.Outs(t),
		persist.RV(0, d.tbl), persist.RV(1, key))...)
	entry, found := delEntry(d.env, t, d.tbl, key)
	if found && entry != 0 {
		d.env.Reg.Alloc.Free(entry)
	}
	return found
}

// delEntry is region ridDelEntry, load-only: the dirty counter, the
// bucket, the chain scan, and on a hit the entry's successor and the count.
func delEntry(env *Env, t persist.Thread, tbl, key uint64) (uint64, bool) {
	dr := t.Load64(tbl + tDirty)
	pp := bucketAddr(t, tbl, key)
	for cur := t.Load64(pp); cur != 0; cur = t.Load64(pp) {
		if t.Load64(cur+eKey) == key {
			nx := t.Load64(cur + eNext)
			cnt := t.Load64(tbl + tCount)
			t.Boundary(ridDelChain, append(persist.Outs(t),
				persist.RV(4, pp), persist.RV(5, cnt), persist.RV(6, nx), persist.RV(7, dr))...)
			delChain(env, t, tbl, pp, cnt, nx, dr)
			return cur, true
		}
		pp = cur + eNext
	}
	t.Boundary(ridEnd)
	end(env, t)
	return 0, false
}

// delChain is region ridDelChain, store-only: unchain the entry,
// decrement the count, bump the dirty counter, end.
func delChain(env *Env, t persist.Thread, tbl, pp, cnt, nx, dr uint64) {
	t.Store64(pp, nx)
	if cnt > 0 {
		t.Store64(tbl+tCount, cnt-1)
	}
	t.Store64(tbl+tDirty, dr+1)
	end(env, t)
}

// Incr adds delta to a key's value inside a durable FASE, treating an
// absent key as 0 (Redis INCR semantics, on this store's uint64
// values). Returns the new value.
func (d *DB) Incr(t persist.Thread, key, delta uint64) uint64 {
	t.BeginDurable()
	t.Boundary(ridIncrEnt, append(persist.Outs(t),
		persist.RV(0, d.tbl), persist.RV(1, key), persist.RV(2, delta))...)
	return incrEntry(d.env, t, d.tbl, key, delta)
}

// incrEntry is region ridIncrEnt: scan the chain (pure reads) and on a
// hit read the old value and compute the new one. The final store
// shares the ridSetUpd region — identical code (publish value, retire
// dirty, end), with the new value logged into the value slot so resume
// replays the computed result. A miss is an insert of delta and reuses
// the set insert region the same way.
func incrEntry(env *Env, t persist.Thread, tbl, key, delta uint64) uint64 {
	dr := t.Load64(tbl + tDirty)
	ba := bucketAddr(t, tbl, key)
	hb := t.Load64(ba)
	for cur := hb; ; cur = t.Load64(cur + eNext) {
		if cur == 0 {
			setMiss(env, t, tbl, key, delta, ba, hb, dr)
			return delta
		}
		if t.Load64(cur+eKey) == key {
			nv := t.Load64(cur+eVal) + delta
			t.Boundary(ridSetUpd, append(persist.Outs(t),
				persist.RV(3, cur), persist.RV(2, nv), persist.RV(7, dr))...)
			setUpdate(env, t, tbl, cur, nv, dr)
			return nv
		}
	}
}

// GetFast is the lock-free read fast lane: a device-direct chain walk
// with no FASE and no fence, sound only under the caller's seqlock
// protocol (snapshot the shard's write epoch before, re-check after,
// discard on change). Every pointer is validated before dereference and
// the walk is step-bounded, because the chain races Set/Del/Incr FASEs
// that free entries back to the allocator. Returns (value, hit, ok);
// ok=false means the walk could not complete safely, not a miss.
func (d *DB) GetFast(key uint64) (v uint64, hit, ok bool) {
	dev := d.env.Reg.Dev
	limit := uint64(dev.Size())
	n := dev.Load64(d.tbl + tBuckets)
	if n == 0 || n&(n-1) != 0 {
		return 0, false, false
	}
	ba := d.tbl + tArray + hash(key, n)*8
	if ba+8 > limit {
		return 0, false, false
	}
	cur := dev.Load64(ba)
	for steps := 0; steps < 1024; steps++ {
		if cur == 0 {
			return 0, false, true
		}
		if cur&7 != 0 || cur+eSize > limit {
			return 0, false, false
		}
		if dev.Load64(cur+eKey) == key {
			return dev.Load64(cur + eVal), true, true
		}
		cur = dev.Load64(cur + eNext)
	}
	return 0, false, false
}

// EvictOne removes one entry to bound the store's size: it rotates a
// volatile bucket cursor to find a victim (reads outside any FASE) and
// deletes it with the ordinary Del FASE. Reports whether a victim
// existed. Pipeline-thread only, like every write.
func (d *DB) EvictOne(t persist.Thread) bool {
	dev := d.env.Reg.Dev
	n := dev.Load64(d.tbl + tBuckets)
	if n == 0 {
		return false
	}
	for i := uint64(0); i < n; i++ {
		b := (d.cursor + i) & (n - 1)
		e := dev.Load64(d.tbl + tArray + b*8)
		if e != 0 {
			d.cursor = b + 1
			return d.Del(t, dev.Load64(e+eKey))
		}
	}
	return false
}

// Count returns the entry count (no synchronization: the store is
// single-threaded by design).
func (d *DB) Count() uint64 { return d.env.Reg.Dev.Load64(d.tbl + tCount) }

// Register installs the store's resume entries.
func Register(rr *persist.ResumeRegistry, env *Env) {
	rr.Register(ridSetEntry, func(t persist.Thread, rf []uint64) {
		setEntry(env, t, rf[0], rf[1], rf[2])
	})
	rr.Register(ridSetUpd, func(t persist.Thread, rf []uint64) {
		setUpdate(env, t, rf[0], rf[3], rf[2], rf[7])
	})
	rr.Register(ridSetIns2, func(t persist.Thread, rf []uint64) {
		setInsert(env, t, rf[0], rf[1], rf[2], rf[3], rf[5], rf[6], rf[7], rf[8])
	})
	rr.Register(ridEnd, func(t persist.Thread, rf []uint64) {
		end(env, t)
	})
	rr.Register(ridDelEntry, func(t persist.Thread, rf []uint64) {
		delEntry(env, t, rf[0], rf[1])
	})
	rr.Register(ridDelChain, func(t persist.Thread, rf []uint64) {
		delChain(env, t, rf[0], rf[4], rf[5], rf[6], rf[7])
	})
	rr.Register(ridIncrEnt, func(t persist.Thread, rf []uint64) {
		incrEntry(env, t, rf[0], rf[1], rf[2])
	})
}
