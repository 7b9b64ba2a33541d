package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Root slots of the lazy-publish test world.
const (
	rootROList  = 1
	rootROMap   = 2
	rootROCache = 3
)

// roWorld is a region holding an ordered list of five nodes, a
// one-bucket hash map of five nodes and a memcache table of four items,
// all built by completed FASEs of one iDO thread.
type roWorld struct {
	reg   *region.Region
	lm    *locks.Manager
	rt    *Runtime
	th    persist.Thread
	list  *ds.List
	hmap  *ds.HashMap
	cache *memcache.Cache
}

func roKey1(k uint64) uint64 { return k ^ 0xABCD }

func newROWorld(t *testing.T) *roWorld {
	t.Helper()
	reg := region.Create(1<<20, nvm.Config{})
	w := &roWorld{reg: reg, lm: locks.NewManager(reg), rt: New(DefaultConfig())}
	if err := w.rt.Attach(reg, w.lm); err != nil {
		t.Fatal(err)
	}
	env := &ds.Env{Reg: reg, LM: w.lm}
	var err error
	var lh, mh, tbl uint64
	if w.list, lh, err = ds.NewList(env); err != nil {
		t.Fatal(err)
	}
	if w.hmap, mh, err = ds.NewHashMap(env, 1); err != nil {
		t.Fatal(err)
	}
	if w.cache, tbl, err = memcache.New(&memcache.Env{Reg: reg, LM: w.lm}, 16); err != nil {
		t.Fatal(err)
	}
	reg.SetRoot(rootROList, lh)
	reg.SetRoot(rootROMap, mh)
	reg.SetRoot(rootROCache, tbl)
	if w.th, err = w.rt.NewThread(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(10); k <= 50; k += 10 {
		w.list.Put(w.th, k, k+1)
		w.hmap.Put(w.th, k, k+2)
	}
	for k := uint64(1); k <= 4; k++ {
		w.cache.Set(w.th, k, roKey1(k), k)
	}
	return w
}

// contents reads everything the world stores, without FASEs.
func (w *roWorld) contents() []uint64 {
	var out []uint64
	add := func(k, v uint64) { out = append(out, k, v) }
	w.list.Walk(add)
	w.hmap.Walk(add)
	out = append(out, w.cache.Count())
	return out
}

// holders lists every lock holder address the structures own.
func (w *roWorld) holders() []uint64 {
	dev := w.reg.Dev
	var out []uint64
	for _, hdr := range []uint64{w.reg.Root(rootROList), dev.Load64(w.reg.Root(rootROMap) + 8)} {
		for n := hdr; n != 0; n = dev.Load64(n + 16) {
			out = append(out, dev.Load64(n+24))
		}
	}
	return append(out, dev.Load64(w.reg.Root(rootROCache)))
}

// TestReadOnlyFASEIsFree: a FASE that stores nothing — an ordered-list
// Get and a hash-map Get that walk five hand-over-hand nodes, a memcache
// DELETE miss and INCR miss — issues no persist fence and no NT store,
// only the write-backs of its lock records and slot clears; and a crash
// at any of its device events leaves nothing to resume: every log idle
// or scrubbed, every lock acquirable, the data untouched.
func TestReadOnlyFASEIsFree(t *testing.T) {
	ops := []struct {
		name string
		run  func(w *roWorld)
	}{
		{"list Get", func(w *roWorld) {
			if v, ok := w.list.Get(w.th, 50); !ok || v != 51 {
				panic(fmt.Sprintf("list Get(50) = %d, %v", v, ok))
			}
		}},
		{"hash-map Get", func(w *roWorld) {
			if v, ok := w.hmap.Get(w.th, 50); !ok || v != 52 {
				panic(fmt.Sprintf("map Get(50) = %d, %v", v, ok))
			}
		}},
		{"memcache DELETE miss", func(w *roWorld) {
			if w.cache.Delete(w.th, 99, roKey1(99)) {
				panic("deleted a key that was never set")
			}
		}},
		{"memcache INCR miss", func(w *roWorld) {
			if _, ok := w.cache.Incr(w.th, 99, roKey1(99), 1, false); ok {
				panic("incremented a key that was never set")
			}
		}},
	}
	const huge = int64(1) << 40
	for _, op := range ops {
		w := newROWorld(t)
		want := w.contents()
		before := w.reg.Dev.Stats()
		w.reg.Dev.ArmLocalCrash(huge)
		op.run(w)
		events := huge - w.reg.Dev.LocalCrashBudgetRemaining()
		w.reg.Dev.ArmLocalCrash(-1)
		after := w.reg.Dev.Stats()
		if f, nt := after.Fences-before.Fences, after.NTStores-before.NTStores; f != 0 || nt != 0 {
			t.Errorf("%s: %d fences, %d NT stores; a FASE that stores nothing pays neither", op.name, f, nt)
		}
		if after.Flushes == before.Flushes {
			t.Errorf("%s: no write-backs: the lock records were not written back", op.name)
		}
		if events < 8 {
			t.Fatalf("%s: only %d device events", op.name, events)
		}

		for f := int64(0); f < events; f++ {
			for _, mode := range []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll} {
				w := newROWorld(t)
				w.reg.Dev.ArmLocalCrash(f)
				died := func() (died bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(nvm.CrashSignal); !ok {
								panic(r)
							}
							died = true
						}
					}()
					op.run(w)
					return false
				}()
				w.reg.Dev.ArmLocalCrash(-1)
				if !died {
					t.Fatalf("%s: crash budget %d of %d did not fire", op.name, f, events)
				}
				reg2, err := w.reg.Crash(mode, rand.New(rand.NewSource(f)))
				if err != nil {
					t.Fatal(err)
				}
				w2 := &roWorld{reg: reg2, lm: locks.NewManager(reg2), rt: New(DefaultConfig())}
				if err := w2.rt.Attach(reg2, w2.lm); err != nil {
					t.Fatal(err)
				}
				env := &ds.Env{Reg: reg2, LM: w2.lm}
				w2.list = ds.AttachList(env, reg2.Root(rootROList))
				w2.hmap = ds.AttachHashMap(env, reg2.Root(rootROMap))
				menv := &memcache.Env{Reg: reg2, LM: w2.lm}
				w2.cache = memcache.Attach(menv, reg2.Root(rootROCache))
				rr := persist.NewResumeRegistry()
				ds.RegisterAll(rr, env)
				memcache.Register(rr, menv)
				st, err := w2.rt.Recover(rr)
				if err != nil {
					t.Fatalf("%s crash %d %v: recover: %v", op.name, f, mode, err)
				}
				if st.Resumed != 0 {
					t.Fatalf("%s crash %d %v: %d FASEs resumed, want 0", op.name, f, mode, st.Resumed)
				}
				for _, ta := range st.Audit.Threads {
					if ta.Action != obs.AuditIdle && ta.Action != obs.AuditScrubbed {
						t.Fatalf("%s crash %d %v: log of thread %d was %s", op.name, f, mode, ta.ThreadID, ta.Action)
					}
				}
				for _, e := range inspect(t, reg2) {
					if e.RegionID != 0 || len(e.Locks) != 0 {
						t.Fatalf("%s crash %d %v: after recovery a log shows region %#x, locks %#x", op.name, f, mode, e.RegionID, e.Locks)
					}
				}
				for _, h := range w2.holders() {
					l := w2.lm.ByHolder(h)
					if !l.TryAcquire() {
						t.Fatalf("%s crash %d %v: lock %#x still held", op.name, f, mode, h)
					}
					l.Release()
				}
				if got := w2.contents(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s crash %d %v: contents %v, want %v", op.name, f, mode, got, want)
				}
			}
		}
	}
}

// prefixFASE runs the first part of a FASE whose prefix has three
// boundaries: region 0x501 logs r0..r2, 0x502 rewrites r1 and adds r5,
// 0x503 rewrites r1 again and adds r9. It returns the register file a
// device-free model predicts.
func prefixFASE(th *Thread) (model [persist.MaxOutputs]uint64) {
	th.BeginDurable()
	th.Boundary(0x501, persist.RV(0, 100), persist.RV(1, 101), persist.RV(2, 102))
	th.Boundary(0x502, persist.RV(1, 201), persist.RV(5, 205))
	th.Boundary(0x503, persist.RV(9, 309), persist.RV(1, 301))
	model[0], model[1], model[2], model[5], model[9] = 100, 301, 102, 205, 309
	return model
}

// TestPublishCarriesWholePrefix: the record the first store publishes
// holds every register the prefix boundaries wrote, each with its last
// value, and nothing else — decoded from a persistence-domain snapshot
// taken right after the store it equals the volatile mirror and an
// independent model, with persist coalescing on and off (where every
// logged word pays its own write-back). Before the store the durable
// recovery_pc is 0 and the prefix has cost no device event.
func TestPublishCarriesWholePrefix(t *testing.T) {
	var flushes [2]uint64
	for i, cfg := range []Config{{Coalesce: true}, {Coalesce: false}} {
		reg := region.Create(1<<16, nvm.Config{})
		rt := New(cfg)
		if err := rt.Attach(reg, locks.NewManager(reg)); err != nil {
			t.Fatal(err)
		}
		pt, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		th := pt.(*Thread)
		cell, err := reg.Alloc.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Dev.Stats()
		model := prefixFASE(th)
		if d := reg.Dev.Stats(); d != before {
			t.Fatalf("coalesce=%v: the prefix touched the device: %+v, was %+v", cfg.Coalesce, d, before)
		}
		if rid, n, _ := durableRF(t, reg, th); rid != 0 || n != 0 {
			t.Fatalf("coalesce=%v: before the first store the durable pc names region %#x with %d pairs", cfg.Coalesce, rid, n)
		}
		th.Store64(cell, 1)
		mid := reg.Dev.Stats()
		flushes[i] = mid.Flushes - before.Flushes
		if f, nt := mid.Fences-before.Fences, mid.NTStores-before.NTStores; f != 2 || nt != 1 {
			t.Fatalf("coalesce=%v: publish and its store paid %d fences and %d NT stores, want 2 (the publish's, the owed one) and 1", cfg.Coalesce, f, nt)
		}
		rid, n, rf := durableRF(t, reg, th)
		if rid != 0x503 || n != 5 {
			t.Fatalf("coalesce=%v: durable pc names region %#x with %d pairs; want the open region 0x503 and the 5 distinct registers", cfg.Coalesce, rid, n)
		}
		if !reflect.DeepEqual(rf, model[:]) || mirror(th) != model {
			t.Fatalf("coalesce=%v: recovery would rebuild %v, mirror %v, model %v", cfg.Coalesce, rf, mirror(th), model)
		}
		// Later boundaries append behind the published record, and publish
		// when their region first stores.
		th.Boundary(0x504, persist.RV(2, 402))
		if rid, n, _ := durableRF(t, reg, th); rid != 0x503 || n != 5 {
			t.Fatalf("coalesce=%v: a boundary published before its region stored: region %#x, %d pairs", cfg.Coalesce, rid, n)
		}
		th.Store64(cell, 2)
		model[2] = 402
		if rid, n, rf := durableRF(t, reg, th); rid != 0x504 || n != 6 || !reflect.DeepEqual(rf, model[:]) {
			t.Fatalf("coalesce=%v: after the next region's store region %#x, %d pairs, rf %v; want 0x504, 6, %v", cfg.Coalesce, rid, n, rf, model)
		}
		th.EndDurable()
		if rid, _, _ := durableRF(t, reg, th); rid != 0 || mirror(th) != [persist.MaxOutputs]uint64{} {
			t.Fatalf("coalesce=%v: after the FASE pc region %#x, mirror %v", cfg.Coalesce, rid, mirror(th))
		}
		// Nothing of the ended FASE is left to publish: the next one's
		// store, with no region open, must not write a recovery_pc.
		nt := reg.Dev.Stats().NTStores
		th.BeginDurable()
		th.Store64(cell, 2)
		th.EndDurable()
		if got := reg.Dev.Stats().NTStores; got != nt {
			t.Fatalf("coalesce=%v: a FASE with no boundary published (%d NT stores) — state of the previous FASE survived its end", cfg.Coalesce, got-nt)
		}
		if s := rt.Stats(); s.LoggedEntries != 2 || s.LoggedBytes != (5*8+8)+(1*8+8) || s.Regions != 4 {
			t.Fatalf("coalesce=%v: %d log records, %d bytes, %d regions; want 2 (the publish, one boundary), 64, 4", cfg.Coalesce, s.LoggedEntries, s.LoggedBytes, s.Regions)
		}
	}
	// Five pairs span two lines coalesced, ten words uncoalesced.
	if flushes[0] != 2 || flushes[1] != 10 {
		t.Fatalf("publish wrote back %d lines coalesced, %d words uncoalesced; want 2 and 10", flushes[0], flushes[1])
	}
}

// TestStoreBeforeFirstBoundaryStillPublishes: a FASE that stores before
// its first boundary has no region to resume at until that boundary, so
// the boundary itself publishes — with the dirty lines written back
// under the same fence — and a crash right after it resumes the region.
func TestStoreBeforeFirstBoundaryStillPublishes(t *testing.T) {
	reg := region.Create(1<<18, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := New(DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
	cell, _ := reg.Alloc.Alloc(16)
	reg.SetRoot(1, cell)
	pt, _ := rt.NewThread()
	th := pt.(*Thread)
	th.BeginDurable()
	th.Store64(cell, 7)
	if reg.Dev.Stats().NTStores != 0 {
		t.Fatal("a store with no region open published a recovery_pc")
	}
	before := reg.Dev.Stats()
	th.Boundary(ridDur, persist.RV(0, 7))
	after := reg.Dev.Stats()
	// One fence covers the record and the dirty line; the publish's own is owed.
	if f, nt := after.Fences-before.Fences, after.NTStores-before.NTStores; f != 1 || nt != 1 {
		t.Fatalf("first boundary with dirty lines: %d fences, %d NT stores; want published under 1 and 1", f, nt)
	}
	reg2, err := reg.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	ncell := reg2.Root(1)
	if got := reg2.Dev.Load64(ncell); got != 7 {
		t.Fatalf("the pre-boundary store did not reach the persistence domain with the publish: cell = %d", got)
	}
	rt2 := New(DefaultConfig())
	if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
		t.Fatal(err)
	}
	rr := persist.NewResumeRegistry()
	rr.Register(ridDur, func(t persist.Thread, rf []uint64) {
		t.Store64(ncell+8, rf[0]*2)
		t.EndDurable()
	})
	st, err := rt2.Recover(rr)
	if err != nil || st.Resumed != 1 {
		t.Fatalf("recover: %v, %d resumed; want the published region resumed", err, st.Resumed)
	}
	if a, b := reg2.Dev.Load64(ncell), reg2.Dev.Load64(ncell+8); a != 7 || b != 14 {
		t.Fatalf("cells = %d,%d want 7,14", a, b)
	}
}
