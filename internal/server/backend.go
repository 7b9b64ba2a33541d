package server

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// A Store is a sharded persistent key-value backend. Each shard is an
// independent FASE domain: the server binds shard i to exactly one
// persist.Thread, and only that thread's pipeline goroutine ever executes
// operations on it, so shards commit concurrently without contending on
// store locks — they meet only where their cache lines do. Keys are
// pre-encoded into the two fixed words the parsers produce (RESP uses
// only k0).
type Store interface {
	NumShards() int
	// ShardOf maps encoded key words to a shard index; the reader
	// goroutines call it to route requests, so it must be pure.
	ShardOf(k0, k1 uint64) int
	Get(t persist.Thread, shard int, k0, k1 uint64) (uint64, bool)
	Set(t persist.Thread, shard int, k0, k1, val uint64)
	Del(t persist.Thread, shard int, k0, k1 uint64) bool
	// Incr adjusts a key read-modify-write as one FASE: wrapping add,
	// or (dec) subtract clamped at zero. Memcache semantics report a
	// miss; Redis semantics treat a missing key as zero and insert.
	Incr(t persist.Thread, shard int, k0, k1, delta uint64, dec bool) (uint64, bool)
	// GetFast is the lock-free device-direct read used by the server's
	// read fast lane. Safe to call from any goroutine concurrently with
	// the shard's pipeline thread; only sound under the caller's
	// seqlock validation. ok=false means the walk could not complete
	// safely (fall back to the slot path), distinct from a miss.
	GetFast(shard int, k0, k1 uint64) (v uint64, hit, ok bool)
	// Touch retires sampled read stats (and the item's access time) as
	// an ordinary FASE on the pipeline thread. May be a no-op for
	// stores without read-side stats.
	Touch(t persist.Thread, shard int, k0, k1, gets, hits uint64)
	// Count reports a shard's live item count (unsynchronized read).
	Count(shard int) uint64
	// EvictOne removes one item from a shard to bound its size,
	// reporting whether a victim existed. Pipeline-thread only.
	EvictOne(t persist.Thread, shard int) bool
	// Device exposes the underlying NVM device; Drain issues its final
	// fence on it.
	Device() *nvm.Device
	// Register declares the store's resumable FASEs for recovery.
	Register(rr *persist.ResumeRegistry)
}

// Region root slots for the shard directories. The runtimes reserve the
// low slots and the chaos harness uses 20..25; the server claims the next
// two.
const (
	RootMemcacheDir = 26
	RootRespDir     = 27
)

// dirMagic tags a shard directory's header word: magic<<32 | nshards.
const dirMagic = 0x1D05E4 // "iDO serve"

// shardMix is the request-routing hash over the encoded key words
// (splitmix64-style finalizer; keys are short ASCII, so the multiply
// cascade matters).
func shardMix(k0, k1 uint64) uint64 {
	h := k0*0x9E3779B97F4A7C15 ^ k1
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// shardShift is the right shift that leaves shardMix's top log2(nshards)
// bits (nshards a power of two; one shard shifts everything out).
// Routing takes the hash's high bits because kv/memcache buckets on the
// low bits of this same function: routed on the low bits, shard s would
// only ever fill the buckets congruent to s mod nshards and chains
// would be nshards times longer than the table was sized for.
func shardShift(nshards int) uint { return uint(64 - bits.TrailingZeros(uint(nshards))) }

// padKeyWords encodes a validated wire key into the stores' fixed-width
// key words: zero-padded little-endian. Injective over legal keys (see
// validKey — no legal key byte is NUL).
func padKeyWords(kb []byte) (k0, k1 uint64) {
	var p [16]byte
	copy(p[:], kb)
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16])
}

// McKeyWords encodes a memcache wire key (1..16 printable bytes) into
// cache key words; exported so tests and the chaos smoke can predict
// where a key lands.
func McKeyWords(key []byte) (k0, k1 uint64, ok bool) {
	if !validKey(key, maxKeyLen) {
		return 0, 0, false
	}
	k0, k1 = padKeyWords(key)
	return k0, k1, true
}

// RespKeyWords encodes a RESP wire key (1..8 printable bytes) into the
// kv/redis key word.
func RespKeyWords(key []byte) (k uint64, ok bool) {
	if !validKey(key, respKeyLen) {
		return 0, false
	}
	k0, _ := padKeyWords(key)
	return k0, true
}

func roundShards(n int) (int, error) {
	if n <= 0 || n > 1024 {
		return 0, fmt.Errorf("server: shard count %d out of range", n)
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p, nil
}

// publishDir persists a shard directory — header word (dirMagic<<32 |
// nshards) then one table address per shard — and roots it, making the
// store reachable after a crash. The directory is immutable once
// published, so ordering is the usual create-then-root: persist the
// body, fence, then set the (itself durable) root.
func publishDir(reg *region.Region, root int, tbls []uint64) error {
	size := 8 * (1 + len(tbls))
	dir, err := reg.Alloc.Alloc(size)
	if err != nil {
		return fmt.Errorf("server: shard directory: %w", err)
	}
	dev := reg.Dev
	dev.Store64(dir, dirMagic<<32|uint64(len(tbls)))
	for i, tbl := range tbls {
		dev.Store64(dir+8+uint64(i)*8, tbl)
	}
	dev.PersistRange(dir, uint64(size))
	dev.Fence()
	reg.SetRoot(root, dir)
	return nil
}

// readDir reopens a published shard directory.
func readDir(reg *region.Region, root int) ([]uint64, error) {
	dir := reg.Root(root)
	if dir == 0 {
		return nil, fmt.Errorf("server: root slot %d holds no shard directory", root)
	}
	hdr := reg.Dev.Load64(dir)
	if hdr>>32 != dirMagic {
		return nil, fmt.Errorf("server: shard directory header %#x: bad magic", hdr)
	}
	n := int(hdr & 0xFFFFFFFF)
	if n == 0 || n > 1024 || n&(n-1) != 0 {
		return nil, fmt.Errorf("server: shard directory: implausible shard count %d", n)
	}
	tbls := make([]uint64, n)
	for i := range tbls {
		tbls[i] = reg.Dev.Load64(dir + 8 + uint64(i)*8)
	}
	return tbls, nil
}

// McStore is the memcache-protocol backend: one kv/memcache cache per
// shard, all inside env.Reg.
type McStore struct {
	env    *memcache.Env
	caches []*memcache.Cache
	tbls   []uint64
	shift  uint // see shardShift
}

// NewMcStore creates shards caches (rounded up to a power of two) of
// bucketsPerShard buckets each and publishes the shard directory at
// RootMemcacheDir.
func NewMcStore(env *memcache.Env, shards, bucketsPerShard int) (*McStore, error) {
	n, err := roundShards(shards)
	if err != nil {
		return nil, err
	}
	st := &McStore{env: env, shift: shardShift(n)}
	for i := 0; i < n; i++ {
		cache, tbl, err := memcache.New(env, bucketsPerShard)
		if err != nil {
			return nil, err
		}
		st.caches = append(st.caches, cache)
		st.tbls = append(st.tbls, tbl)
	}
	if err := publishDir(env.Reg, RootMemcacheDir, st.tbls); err != nil {
		return nil, err
	}
	return st, nil
}

// AttachMcStore reopens the store published by NewMcStore after a
// restart or crash.
func AttachMcStore(env *memcache.Env) (*McStore, error) {
	tbls, err := readDir(env.Reg, RootMemcacheDir)
	if err != nil {
		return nil, err
	}
	st := &McStore{env: env, tbls: tbls, shift: shardShift(len(tbls))}
	for _, tbl := range tbls {
		st.caches = append(st.caches, memcache.Attach(env, tbl))
	}
	return st, nil
}

func (st *McStore) NumShards() int            { return len(st.caches) }
func (st *McStore) ShardOf(k0, k1 uint64) int { return int(shardMix(k0, k1) >> st.shift) }

// Tables exposes the per-shard table addresses for image verification.
func (st *McStore) Tables() []uint64 { return st.tbls }

func (st *McStore) Get(t persist.Thread, shard int, k0, k1 uint64) (uint64, bool) {
	return st.caches[shard].Get(t, k0, k1)
}
func (st *McStore) Set(t persist.Thread, shard int, k0, k1, val uint64) {
	st.caches[shard].Set(t, k0, k1, val)
}
func (st *McStore) Del(t persist.Thread, shard int, k0, k1 uint64) bool {
	return st.caches[shard].Delete(t, k0, k1)
}
func (st *McStore) Incr(t persist.Thread, shard int, k0, k1, delta uint64, dec bool) (uint64, bool) {
	return st.caches[shard].Incr(t, k0, k1, delta, dec)
}
func (st *McStore) GetFast(shard int, k0, k1 uint64) (uint64, bool, bool) {
	return st.caches[shard].GetFast(k0, k1)
}
func (st *McStore) Touch(t persist.Thread, shard int, k0, k1, gets, hits uint64) {
	st.caches[shard].Touch(t, k0, k1, gets, hits)
}
func (st *McStore) Count(shard int) uint64 { return st.caches[shard].Count() }
func (st *McStore) EvictOne(t persist.Thread, shard int) bool {
	return st.caches[shard].EvictOne(t)
}
func (st *McStore) Device() *nvm.Device { return st.env.Reg.Dev }
func (st *McStore) Register(rr *persist.ResumeRegistry) {
	// One registration covers every cache in the region.
	memcache.Register(rr, st.env)
}

// RespStore is the RESP backend: one kv/redis DB per shard. kv/redis
// keys are single words; k1 is ignored throughout.
type RespStore struct {
	env   *redis.Env
	dbs   []*redis.DB
	tbls  []uint64
	shift uint // see shardShift
}

// NewRespStore creates the sharded DBs and publishes the directory at
// RootRespDir.
func NewRespStore(env *redis.Env, shards, bucketsPerShard int) (*RespStore, error) {
	n, err := roundShards(shards)
	if err != nil {
		return nil, err
	}
	st := &RespStore{env: env, shift: shardShift(n)}
	for i := 0; i < n; i++ {
		db, tbl, err := redis.New(env, bucketsPerShard)
		if err != nil {
			return nil, err
		}
		st.dbs = append(st.dbs, db)
		st.tbls = append(st.tbls, tbl)
	}
	if err := publishDir(env.Reg, RootRespDir, st.tbls); err != nil {
		return nil, err
	}
	return st, nil
}

// AttachRespStore reopens the store published by NewRespStore.
func AttachRespStore(env *redis.Env) (*RespStore, error) {
	tbls, err := readDir(env.Reg, RootRespDir)
	if err != nil {
		return nil, err
	}
	st := &RespStore{env: env, tbls: tbls, shift: shardShift(len(tbls))}
	for _, tbl := range tbls {
		st.dbs = append(st.dbs, redis.Attach(env, tbl))
	}
	return st, nil
}

func (st *RespStore) NumShards() int            { return len(st.dbs) }
func (st *RespStore) ShardOf(k0, k1 uint64) int { return int(shardMix(k0, k1) >> st.shift) }

// Tables exposes the per-shard table addresses for image verification.
func (st *RespStore) Tables() []uint64 { return st.tbls }

func (st *RespStore) Get(t persist.Thread, shard int, k0, _ uint64) (uint64, bool) {
	return st.dbs[shard].Get(t, k0)
}
func (st *RespStore) Set(t persist.Thread, shard int, k0, _, val uint64) {
	st.dbs[shard].Set(t, k0, val)
}
func (st *RespStore) Del(t persist.Thread, shard int, k0, _ uint64) bool {
	return st.dbs[shard].Del(t, k0)
}
func (st *RespStore) Incr(t persist.Thread, shard int, k0, _, delta uint64, dec bool) (uint64, bool) {
	if dec {
		// RESP DECR is unimplemented at the protocol layer; keep the
		// store honest anyway by refusing rather than corrupting.
		return 0, false
	}
	return st.dbs[shard].Incr(t, k0, delta), true
}
func (st *RespStore) GetFast(shard int, k0, _ uint64) (uint64, bool, bool) {
	return st.dbs[shard].GetFast(k0)
}
func (st *RespStore) Touch(persist.Thread, int, uint64, uint64, uint64, uint64) {
	// kv/redis GETs maintain no read-side stats or access times.
}
func (st *RespStore) Count(shard int) uint64 { return st.dbs[shard].Count() }
func (st *RespStore) EvictOne(t persist.Thread, shard int) bool {
	return st.dbs[shard].EvictOne(t)
}
func (st *RespStore) Device() *nvm.Device { return st.env.Reg.Dev }
func (st *RespStore) Register(rr *persist.ResumeRegistry) {
	redis.Register(rr, st.env)
}
