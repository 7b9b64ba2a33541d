package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// inspect decodes every log on reg's list with the production decoder.
func inspect(t *testing.T, reg *region.Region) []idolog.Entry {
	t.Helper()
	logs, err := idolog.Inspect(reg)
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

// durableRF decodes the register file a restart would rebuild for th
// right now: the persistence domain alone (no cached words) is copied
// into a fresh device and read with the production decoder.
func durableRF(t *testing.T, reg *region.Region, th *Thread) (regionID uint64, n int, rf []uint64) {
	t.Helper()
	img := reg.Dev.SnapshotPersistent()
	dev := nvm.New(nvm.Config{Size: len(img)})
	dev.RestorePersistent(img)
	for _, e := range inspect(t, &region.Region{Dev: dev}) {
		if e.ThreadID == th.ID() {
			return e.RegionID, len(e.Pairs), e.RF
		}
	}
	t.Fatalf("no log of thread %d on the durable list", th.ID())
	return 0, 0, nil
}

// mirror is the register file th's volatile mirror holds: what compaction
// writes out and what a resume would get if the FASE were published now.
func mirror(th *Thread) (rf [persist.MaxOutputs]uint64) {
	for r := range rf {
		rf[r] = th.Reg(r)
	}
	return rf
}

// TestRecoveredRFMatchesMirror: for random output sequences — any
// number of outputs per boundary, registers repeated within and across
// boundaries, long enough to compact several times — the register file
// recovery would rebuild from the persistence domain after each
// boundary equals both the thread's volatile mirror (what compaction
// writes out) and an independent model, with persist coalescing on and
// off. Every region stores, which is what publishes the FASE and then
// each boundary; until the first store the durable recovery_pc stays 0.
func TestRecoveredRFMatchesMirror(t *testing.T) {
	for _, cfg := range []Config{{Coalesce: true}, {Coalesce: false}} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
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
			var model [persist.MaxOutputs]uint64
			compactions := 0
			th.BeginDurable()
			for b := 0; b < 100; b++ {
				outs := make([]persist.RegVal, rng.Intn(persist.MaxOutputs+1))
				for i := range outs {
					outs[i] = persist.RV(rng.Intn(persist.MaxOutputs), rng.Uint64())
					model[outs[i].Reg] = outs[i].Val
				}
				_, before, _ := durableRF(t, reg, th)
				rid := uint64(0x300 + b)
				th.Boundary(rid, outs...)
				if b == 0 {
					if gotRID, n, _ := durableRF(t, reg, th); gotRID != 0 || n != 0 {
						t.Fatalf("coalesce=%v seed %d: before the first store the durable pc names region %#x with %d pairs", cfg.Coalesce, seed, gotRID, n)
					}
				}
				th.Store64(cell, uint64(b)) // publishes the FASE (b == 0), then each boundary
				if mirror(th) != model {
					t.Fatalf("coalesce=%v seed %d boundary %d: mirror %v, model %v", cfg.Coalesce, seed, b, mirror(th), model)
				}
				gotRID, n, rf := durableRF(t, reg, th)
				if gotRID != rid || n > idolog.RecPairs {
					t.Fatalf("coalesce=%v seed %d boundary %d: durable pc names region %#x with %d pairs, thread is in %#x", cfg.Coalesce, seed, b, gotRID, n, rid)
				}
				if b > 0 && n < before+len(outs) {
					compactions++
				}
				if !reflect.DeepEqual(rf, model[:]) {
					t.Fatalf("coalesce=%v seed %d boundary %d (%d pairs): recovery would rebuild %v, model %v", cfg.Coalesce, seed, b, n, rf, model)
				}
			}
			th.EndDurable()
			if rid, _, _ := durableRF(t, reg, th); compactions < 2 || rid != 0 || mirror(th) != [persist.MaxOutputs]uint64{} {
				t.Fatalf("coalesce=%v seed %d: %d compactions; after the FASE pc region %#x, mirror %v", cfg.Coalesce, seed, compactions, rid, mirror(th))
			}
		}
	}
}

// TestInspectLogsDecodesRecord crashes a thread mid-FASE holding five
// locks (four in the header line, one in the tail of the log) — before
// its first store, after it, and after a compaction — and checks what
// idolog.Inspect and the recovery audit decode: nothing to resume and five
// holders to scrub in the first case; pair count, base flag, register
// file and holders in the others.
func TestInspectLogsDecodesRecord(t *testing.T) {
	for _, tc := range []struct{ stored, compacted bool }{{false, false}, {true, false}, {true, true}} {
		compacted := tc.compacted
		reg := region.Create(1<<18, nvm.Config{})
		lm := locks.NewManager(reg)
		rt := New(DefaultConfig())
		if err := rt.Attach(reg, lm); err != nil {
			t.Fatal(err)
		}
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		cell, err := reg.Alloc.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		var holders []uint64
		for i := 0; i < 5; i++ {
			l, err := lm.Create()
			if err != nil {
				t.Fatal(err)
			}
			reg.SetRoot(1+i, l.Holder())
			holders = append(holders, l.Holder())
			th.Lock(l)
		}
		th.Boundary(0x400, persist.RV(0, 10), persist.RV(1, 11))
		wantPairs := []persist.RegVal{persist.RV(0, 10), persist.RV(1, 11)}
		wantRF := make([]uint64, persist.MaxOutputs)
		wantRF[0], wantRF[1] = 10, 11
		wantWords := 2
		if tc.stored {
			th.Store64(cell, 7) // publishes region 0x400 with its two pairs
		}
		if compacted {
			// 62 more pairs fill the area; the next boundary compacts.
			for i := 0; i < 31; i++ {
				th.Boundary(0x401, persist.RV(2, uint64(i)), persist.RV(3, uint64(100+i)))
			}
			th.Boundary(0x402, persist.RV(1, 99))
			th.Store64(cell, 8) // region 0x402's store publishes it
			wantPairs = []persist.RegVal{persist.RV(1, 99)}
			wantRF[1], wantRF[2], wantRF[3] = 99, 30, 130
			wantWords = 1 + persist.MaxOutputs
		}
		reg2, err := reg.Crash(nvm.CrashDiscard, nil)
		if err != nil {
			t.Fatal(err)
		}
		logs := inspect(t, reg2)
		if len(logs) != 1 {
			t.Fatalf("%d logs, want 1", len(logs))
		}
		e := logs[0]
		if !tc.stored {
			wantPairs, wantRF = nil, nil
		}
		if (e.RegionID != 0) != tc.stored || e.BaseValid != compacted ||
			!reflect.DeepEqual(e.Pairs, wantPairs) || !reflect.DeepEqual(e.RF, wantRF) || !reflect.DeepEqual(e.Locks, holders) {
			t.Fatalf("%+v: Inspect decoded %+v;\nwant pairs %v, rf %v, locks %#x", tc, e, wantPairs, wantRF, holders)
		}

		lm2 := locks.NewManager(reg2)
		rt2 := New(DefaultConfig())
		if err := rt2.Attach(reg2, lm2); err != nil {
			t.Fatal(err)
		}
		rr := persist.NewResumeRegistry()
		var gotRF []uint64
		resume := func(t persist.Thread, rf []uint64) {
			gotRF = append([]uint64(nil), rf...)
			for i := len(holders) - 1; i >= 0; i-- {
				t.Unlock(lm2.ByHolder(reg2.Root(1 + i)))
			}
		}
		rr.Register(0x400, resume)
		rr.Register(0x402, resume)
		st, err := rt2.Recover(rr)
		if err != nil {
			t.Fatal(err)
		}
		ta := st.Audit.Threads[0]
		if !tc.stored {
			if ta.Action != obs.AuditScrubbed || st.Resumed != 0 || gotRF != nil {
				t.Fatalf("%+v: audit %+v, %d resumed; want the five lock records scrubbed and nothing resumed", tc, ta, st.Resumed)
			}
			if logs := inspect(t, reg2); len(logs[0].Locks) != 0 {
				t.Fatalf("%+v: after the scrub the log still records %#x", tc, logs[0].Locks)
			}
			continue
		}
		if ta.Action != obs.AuditResumed || ta.WordsRestored != wantWords || !reflect.DeepEqual(ta.Locks, holders) || !reflect.DeepEqual(gotRF, wantRF) {
			t.Fatalf("%+v: audit %+v, resume saw %v; want %d words, locks %#x, rf %v", tc, ta, gotRF, wantWords, holders, wantRF)
		}
	}
}

// TestStaleSlotUnderClearedPCIsScrubbed is the crash the final release
// allows by not fencing its slot clear: thread A's clear is still in
// flight (here: A dies at the clear's CLWB, the closest the device
// model gets to an un-drained write-back, and the test hands the mutex
// on as A's release would have) when thread B acquires the lock and gets
// mid-FASE, and then power fails. A's log then still records the holder
// B's log records too. What keeps that harmless is that A's stale slot
// can only sit under A's fenced recovery_pc == 0: Recover scrubs it and
// never re-acquires, so the holder is re-acquired once, by B.
func TestStaleSlotUnderClearedPCIsScrubbed(t *testing.T) {
	// The clear's CLWB is the last device event of A's FASE.
	probe := newFixture(t)
	pa, err := probe.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	const huge = int64(1) << 40
	probe.reg.Dev.ArmLocalCrash(huge)
	probe.incrementFASE(pa, &crasher{k: -1})
	events := huge - probe.reg.Dev.LocalCrashBudgetRemaining()
	probe.reg.Dev.ArmLocalCrash(-1)

	for _, mode := range []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll} {
		f := newFixture(t)
		a, err := f.rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		f.reg.Dev.ArmLocalCrash(events - 1)
		died := func() (died bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
					died = true
				}
			}()
			f.incrementFASE(a, &crasher{k: -1})
			return false
		}()
		f.reg.Dev.ArmLocalCrash(-1)
		aPC := ^uint64(0)
		for _, e := range inspect(t, f.reg) {
			if e.ThreadID == a.ID() {
				aPC = e.PC
			}
		}
		if !died || aPC != 0 {
			t.Fatalf("A did not die between its pc clear and its slot write-back (died=%v)", died)
		}
		f.lock.Release() // A's release: the mutex changes hands with the clear un-drained
		if !runWithCrash(func() { f.incrementFASE(b, &crasher{k: 5}) }) {
			t.Fatal("B did not stop mid-FASE")
		}

		f2 := f.reopen(t, mode, rand.New(rand.NewSource(1)))
		live := 0
		for _, e := range inspect(t, f2.reg) {
			if e.RegionID != 0 && len(e.Locks) > 0 {
				live++
			}
		}
		if live != 1 {
			t.Fatalf("mode %v: %d logs hold the lock under a nonzero recovery_pc, want exactly B's", mode, live)
		}
		st, err := f2.rt.Recover(f2.registry())
		if err != nil {
			t.Fatalf("mode %v: recover: %v", mode, err)
		}
		var actions [2]string
		for _, ta := range st.Audit.Threads {
			actions[ta.ThreadID] = ta.Action
		}
		wantA := obs.AuditScrubbed
		if mode == nvm.CrashPersistAll {
			wantA = obs.AuditIdle // the adversary drained A's clear after all
		}
		if mode != nvm.CrashRandom && actions[a.ID()] != wantA || actions[b.ID()] != obs.AuditResumed {
			t.Fatalf("mode %v: audit actions A=%q B=%q, want A=%q B=%q", mode, actions[a.ID()], actions[b.ID()], wantA, obs.AuditResumed)
		}
		if st.Audit.LocksReacquired() != 1 || st.Resumed != 1 {
			t.Fatalf("mode %v: %d lock re-acquisitions, %d resumed; want 1 and 1 (a double holder would deadlock or show 2)", mode, st.Audit.LocksReacquired(), st.Resumed)
		}
		if got := f2.reg.Dev.Load64(f2.ctr); got != 7 {
			t.Fatalf("mode %v: counter = %d, want 7 (A's increment and B's resumed one)", mode, got)
		}
		if !f2.lock.TryAcquire() {
			t.Fatalf("mode %v: lock still held after recovery", mode)
		}
		f2.lock.Release()
		// The scrub is durable: a second restart finds nothing to do.
		f3 := f2.reopen(t, nvm.CrashDiscard, nil)
		st, err = f3.rt.Recover(f3.registry())
		if err != nil {
			t.Fatal(err)
		}
		for _, ta := range st.Audit.Threads {
			if ta.Action != obs.AuditIdle {
				t.Fatalf("mode %v: second restart still had to %s thread %d", mode, ta.Action, ta.ThreadID)
			}
		}
	}
}
