package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Region IDs for the test FASEs.
const (
	ridIncA = 0x101 // after lock acquire: read the counter
	ridIncB = 0x102 // store the incremented counter
	ridHoH1 = 0x111 // hand-over-hand chain, step 1
	ridHoH2 = 0x112
	ridDur  = 0x121 // durable-region FASE
)

// errCrash simulates the power failing at an injected point.
type errCrash struct{}

// crasher panics with errCrash at the k-th crash point.
type crasher struct{ k, n int }

func (c *crasher) point() {
	if c.n == c.k {
		panic(errCrash{})
	}
	c.n++
}

// fixture wires a region, lock manager, runtime, and a persistent counter
// at a root-published address, with one lock whose holder is also rooted.
type fixture struct {
	reg  *region.Region
	lm   *locks.Manager
	rt   *Runtime
	lock *locks.Lock
	ctr  uint64 // NVM address of the counter
}

const (
	rootCtr  = 1
	rootLock = 2
)

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := region.Create(1<<18, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := New(DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
	lock, err := lm.Create()
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := reg.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	reg.Dev.Store64(ctr, 5)
	reg.Dev.CLWB(ctr)
	reg.Dev.Fence()
	reg.SetRoot(rootCtr, ctr)
	reg.SetRoot(rootLock, lock.Holder())
	return &fixture{reg: reg, lm: lm, rt: rt, lock: lock, ctr: ctr}
}

// reopen simulates process death + restart: crash the device, reattach,
// and build a fresh runtime + lock manager over the surviving bytes.
func (f *fixture) reopen(t *testing.T, mode nvm.CrashMode, rng *rand.Rand) *fixture {
	t.Helper()
	reg2, err := f.reg.Crash(mode, rng)
	if err != nil {
		t.Fatal(err)
	}
	lm2 := locks.NewManager(reg2)
	rt2 := New(DefaultConfig())
	if err := rt2.Attach(reg2, lm2); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		reg:  reg2,
		lm:   lm2,
		rt:   rt2,
		lock: lm2.ByHolder(reg2.Root(rootLock)),
		ctr:  reg2.Root(rootCtr),
	}
}

// registry returns resume entries for the increment FASE against this
// (post-recovery) fixture.
func (f *fixture) registry() *persist.ResumeRegistry {
	rr := persist.NewResumeRegistry()
	rr.Register(ridIncA, func(t persist.Thread, rf []uint64) {
		v := t.Load64(f.ctr)
		t.Boundary(ridIncB, persist.RV(0, v))
		t.Store64(f.ctr, v+1)
		t.Unlock(f.lock)
	})
	rr.Register(ridIncB, func(t persist.Thread, rf []uint64) {
		v := rf[0]
		t.Store64(f.ctr, v+1)
		t.Unlock(f.lock)
	})
	return rr
}

// incrementFASE performs one counter increment with crash points between
// every instrumented step.
func (f *fixture) incrementFASE(t persist.Thread, c *crasher) {
	c.point()
	t.Lock(f.lock)
	c.point()
	t.Boundary(ridIncA)
	c.point()
	v := t.Load64(f.ctr)
	c.point()
	t.Boundary(ridIncB, persist.RV(0, v))
	c.point()
	t.Store64(f.ctr, v+1)
	c.point()
	t.Unlock(f.lock)
	c.point()
}

func TestIncrementNoCrash(t *testing.T) {
	f := newFixture(t)
	th, err := f.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	f.incrementFASE(th, &crasher{k: -1})
	if got := f.reg.Dev.Load64(f.ctr); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	s := f.rt.Stats()
	if s.FASEs != 1 {
		t.Fatalf("FASEs = %d, want 1", s.FASEs)
	}
	if s.Regions == 0 || s.Stores != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCrashAtEveryPointThenRecover(t *testing.T) {
	// At every injected crash point, post-recovery state must be
	// consistent. Before the FASE's first store (k <= 4: the crash lands
	// before the Store64 call) there is nothing to recover: the FASE is
	// dropped, the counter is untouched, and the lock record is scrubbed.
	// From the store on (k >= 5) the FASE completes, by resumption if it
	// was interrupted.
	for k := 0; k < 7; k++ {
		for _, mode := range []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll} {
			f := newFixture(t)
			th, err := f.rt.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			crashed := runWithCrash(func() { f.incrementFASE(th, &crasher{k: k}) })
			if !crashed {
				t.Fatalf("k=%d: crash point did not fire", k)
			}
			f2 := f.reopen(t, mode, rand.New(rand.NewSource(int64(k))))
			stats, err := f2.rt.Recover(f2.registry())
			if err != nil {
				t.Fatalf("k=%d mode=%v: recover: %v", k, mode, err)
			}
			got := f2.reg.Dev.Load64(f2.ctr)
			wantCtr, wantResumed, wantAction := uint64(5), 0, obs.AuditScrubbed
			switch {
			case k == 0:
				wantAction = obs.AuditIdle // died before Lock recorded anything
			case k == 5:
				wantCtr, wantResumed, wantAction = 6, 1, obs.AuditResumed
			case k == 6:
				wantCtr, wantAction = 6, obs.AuditIdle
			}
			if got != wantCtr || stats.Resumed != wantResumed {
				t.Fatalf("k=%d mode=%v: counter = %d, resumed %d; want %d and %d", k, mode, got, stats.Resumed, wantCtr, wantResumed)
			}
			if a := stats.Audit.Threads[0].Action; a != wantAction {
				t.Fatalf("k=%d mode=%v: audit action %q, want %q", k, mode, a, wantAction)
			}
			// After recovery the lock must be free and no slot may stay
			// recorded.
			if !f2.lock.TryAcquire() {
				t.Fatalf("k=%d: lock still held after recovery", k)
			}
			f2.lock.Release()
			for _, e := range inspect(t, f2.reg) {
				if e.RegionID != 0 || len(e.Locks) != 0 {
					t.Fatalf("k=%d mode=%v: log after recovery still shows region %#x, locks %#x", k, mode, e.RegionID, e.Locks)
				}
			}
		}
	}
}

func runWithCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errCrash); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

func TestRepeatedCrashesDuringRecovery(t *testing.T) {
	// Crash, partially recover is not modeled (recovery here runs to
	// completion), but repeated crash/recover cycles over many FASEs must
	// keep the counter consistent with the number of completed FASEs.
	f := newFixture(t)
	rng := rand.New(rand.NewSource(99))
	completed := uint64(0)
	for round := 0; round < 25; round++ {
		th, err := f.rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(8) // sometimes no crash (k=7 beyond last point)
		crashed := runWithCrash(func() { f.incrementFASE(th, &crasher{k: k}) })
		if !crashed {
			completed++
			// Clean run; no recovery needed, but run it anyway: it must
			// be a no-op.
		}
		f = f.reopen(t, nvm.CrashRandom, rng)
		if _, err := f.rt.Recover(f.registry()); err != nil {
			t.Fatal(err)
		}
		got := f.reg.Dev.Load64(f.ctr)
		if crashed {
			// Crash may or may not have reached the first boundary.
			if got != 5+completed && got != 5+completed+1 {
				t.Fatalf("round %d: counter = %d, completed = %d", round, got, completed)
			}
			completed = got - 5
		} else if got != 5+completed {
			t.Fatalf("round %d: counter = %d, want %d", round, got, 5+completed)
		}
	}
}

func TestHandOverHandCrashRecovery(t *testing.T) {
	// A FASE that holds lock1, acquires lock2, releases lock1, writes,
	// releases lock2 (Fig. 2b), crashed after the cross-over. Before its
	// store there is nothing to recover: both lock records are scrubbed
	// and the cell is untouched. After it, recovery must reacquire only
	// lock2 and complete the FASE.
	for _, stored := range []bool{false, true} {
		reg := region.Create(1<<18, nvm.Config{})
		lm := locks.NewManager(reg)
		rt := New(DefaultConfig())
		if err := rt.Attach(reg, lm); err != nil {
			t.Fatal(err)
		}
		l1, _ := lm.Create()
		l2, _ := lm.Create()
		cell, _ := reg.Alloc.Alloc(8)
		reg.SetRoot(1, cell)
		reg.SetRoot(2, l1.Holder())
		reg.SetRoot(3, l2.Holder())

		th, _ := rt.NewThread()
		crashed := runWithCrash(func() {
			th.Lock(l1)
			th.Boundary(ridHoH1)
			th.Lock(l2)
			th.Boundary(ridHoH2)
			th.Unlock(l1)
			if stored {
				th.Store64(cell, 42)
			}
			panic(errCrash{}) // crash holding only l2, mid-region ridHoH2
		})
		if !crashed {
			t.Fatal("crash did not fire")
		}

		reg2, err := reg.Crash(nvm.CrashRandom, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		lm2 := locks.NewManager(reg2)
		rt2 := New(DefaultConfig())
		if err := rt2.Attach(reg2, lm2); err != nil {
			t.Fatal(err)
		}
		nl1 := lm2.ByHolder(reg2.Root(2))
		nl2 := lm2.ByHolder(reg2.Root(3))
		ncell := reg2.Root(1)

		rr := persist.NewResumeRegistry()
		rr.Register(ridHoH1, func(t persist.Thread, rf []uint64) {
			t.Lock(nl2)
			t.Boundary(ridHoH2)
			t.Unlock(nl1)
			t.Store64(ncell, 42)
			t.Unlock(nl2)
		})
		rr.Register(ridHoH2, func(t persist.Thread, rf []uint64) {
			t.Unlock(nl1) // already released before the crash: must be a no-op
			t.Store64(ncell, 42)
			t.Unlock(nl2)
		})
		stats, err := rt2.Recover(rr)
		if err != nil {
			t.Fatal(err)
		}
		ta := stats.Audit.Threads[0]
		if stored {
			if stats.Resumed != 1 || ta.RegionID != ridHoH2 || !reflect.DeepEqual(ta.Locks, []uint64{nl2.Holder()}) {
				t.Fatalf("stored: resumed = %d, audit %+v; want region %#x resumed holding only lock2 %#x", stats.Resumed, ta, ridHoH2, nl2.Holder())
			}
			if got := reg2.Dev.Load64(ncell); got != 42 {
				t.Fatalf("cell = %d, want 42", got)
			}
		} else {
			if stats.Resumed != 0 || ta.Action != obs.AuditScrubbed {
				t.Fatalf("no store: resumed = %d, action %q; want 0 and scrubbed", stats.Resumed, ta.Action)
			}
			if got := reg2.Dev.Load64(ncell); got != 0 {
				t.Fatalf("no store: cell = %d, want it untouched", got)
			}
		}
		if !nl1.TryAcquire() || !nl2.TryAcquire() {
			t.Fatalf("stored=%v: locks not free after recovery", stored)
		}
	}
}

func TestDurableRegionCrashRecovery(t *testing.T) {
	reg := region.Create(1<<18, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := New(DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
	cell, _ := reg.Alloc.Alloc(16)
	reg.SetRoot(1, cell)
	th, _ := rt.NewThread()
	crashed := runWithCrash(func() {
		th.BeginDurable()
		th.Boundary(ridDur, persist.RV(0, 7))
		th.Store64(cell, 7)
		panic(errCrash{}) // crash before the second store
	})
	if !crashed {
		t.Fatal("no crash")
	}
	reg2, err := reg.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := New(DefaultConfig())
	if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
		t.Fatal(err)
	}
	ncell := reg2.Root(1)
	rr := persist.NewResumeRegistry()
	rr.Register(ridDur, func(t persist.Thread, rf []uint64) {
		t.Store64(ncell, rf[0])
		t.Store64(ncell+8, rf[0]*2)
		t.EndDurable()
	})
	if _, err := rt2.Recover(rr); err != nil {
		t.Fatal(err)
	}
	if a, b := reg2.Dev.Load64(ncell), reg2.Dev.Load64(ncell+8); a != 7 || b != 14 {
		t.Fatalf("cells = %d,%d want 7,14", a, b)
	}
}

func TestRobbedLockWindowIsScrubbed(t *testing.T) {
	// Crash after Lock() persisted the slot but before the post-acquire
	// boundary: recovery must not resume anything and must scrub the
	// stale slot so a second recovery is clean.
	f := newFixture(t)
	th, _ := f.rt.NewThread()
	crashed := runWithCrash(func() { f.incrementFASE(th, &crasher{k: 1}) })
	if !crashed {
		t.Fatal("no crash")
	}
	f2 := f.reopen(t, nvm.CrashPersistAll, nil)
	stats, err := f2.rt.Recover(f2.registry())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 {
		t.Fatalf("resumed = %d, want 0", stats.Resumed)
	}
	// The scrub must itself be durable.
	f3 := f2.reopen(t, nvm.CrashDiscard, nil)
	if got := f3.reg.Dev.Load64(f3.ctr); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if _, err := f3.rt.Recover(f3.registry()); err != nil {
		t.Fatal(err)
	}
}

func TestMissingResumeEntryIsAnError(t *testing.T) {
	f := newFixture(t)
	th, _ := f.rt.NewThread()
	empty := persist.NewResumeRegistry()
	// Before the FASE's first store nothing is resumed, so no entry is
	// looked up.
	runWithCrash(func() { f.incrementFASE(th, &crasher{k: 3}) })
	f2 := f.reopen(t, nvm.CrashPersistAll, nil)
	if _, err := f2.rt.Recover(empty); err != nil {
		t.Fatalf("Recover of an unpublished FASE needed a resume entry: %v", err)
	}
	th2, _ := f2.rt.NewThread()
	runWithCrash(func() { f2.incrementFASE(th2, &crasher{k: 5}) }) // past the store
	f3 := f2.reopen(t, nvm.CrashPersistAll, nil)
	if _, err := f3.rt.Recover(empty); err == nil {
		t.Fatal("Recover succeeded with no resume entries")
	}
}

func TestBoundaryValidation(t *testing.T) {
	f := newFixture(t)
	th, _ := f.rt.NewThread()
	for _, bad := range []uint64{0, 1 << 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Boundary(%#x) did not panic", bad)
				}
			}()
			th.Boundary(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("too many outputs did not panic")
			}
		}()
		th.Boundary(ridIncA, tooMany()...)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range register slot did not panic")
			}
		}()
		th.Boundary(ridIncA, persist.RV(persist.MaxOutputs, 1))
	}()
}

// tooMany builds one more output than a region may log.
func tooMany() []persist.RegVal {
	out := make([]persist.RegVal, persist.MaxOutputs+1)
	for i := range out {
		out[i] = persist.RV(i%persist.MaxOutputs, uint64(i))
	}
	return out
}

func TestUnlockNotHeldPanics(t *testing.T) {
	f := newFixture(t)
	th, _ := f.rt.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unheld lock did not panic")
		}
	}()
	th.Unlock(f.lock)
}

func TestPersistCoalescingFlushCounts(t *testing.T) {
	// Coalesced, a boundary's 8 pairs pack four to a line; uncoalesced
	// every logged word pays its own write-back. The FASE stores first:
	// only a published FASE's boundaries write records at all.
	count := func(cfg Config) uint64 {
		reg := region.Create(1<<18, nvm.Config{})
		lm := locks.NewManager(reg)
		rt := New(cfg)
		if err := rt.Attach(reg, lm); err != nil {
			t.Fatal(err)
		}
		cell, err := reg.Alloc.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		th, _ := rt.NewThread()
		th.BeginDurable()
		th.Boundary(ridDur)
		th.Store64(cell, 1)
		reg.Dev.ResetStats()
		out := make([]persist.RegVal, 8)
		for i := range out {
			out[i] = persist.RV(i, uint64(i))
		}
		for i := 0; i < 100; i++ {
			th.Boundary(ridDur, out...)
		}
		flushes := reg.Dev.Stats().Flushes
		th.EndDurable()
		return flushes
	}
	with := count(Config{Coalesce: true})
	without := count(Config{Coalesce: false})
	if with == 0 || without == 0 {
		t.Fatalf("the boundaries wrote no records: with=%d without=%d flushes", with, without)
	}
	if with*4 > without {
		t.Fatalf("coalescing saved too little: with=%d without=%d", with, without)
	}
}

func TestMultiThreadFASEs(t *testing.T) {
	f := newFixture(t)
	const workers = 8
	const each = 50
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		th, err := f.rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		go func(th persist.Thread) {
			for i := 0; i < each; i++ {
				f.incrementFASE(th, &crasher{k: -1})
			}
			done <- nil
		}(th)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got := f.reg.Dev.Load64(f.ctr); got != 5+workers*each {
		t.Fatalf("counter = %d, want %d", got, 5+workers*each)
	}
	s := f.rt.Stats()
	if s.FASEs != workers*each {
		t.Fatalf("FASEs = %d, want %d", s.FASEs, workers*each)
	}
}

func TestStatsHistograms(t *testing.T) {
	f := newFixture(t)
	th, _ := f.rt.NewThread()
	f.incrementFASE(th, &crasher{k: -1})
	s := f.rt.Stats()
	// Two regions: ridIncA (0 stores, 0 outputs) and ridIncB (1 store, 1
	// output).
	if s.StoresPerRegion[0] != 1 || s.StoresPerRegion[1] != 1 {
		t.Fatalf("stores histogram = %v", s.StoresPerRegion[:4])
	}
	if s.OutputsPerRegion[0] != 1 || s.OutputsPerRegion[1] != 1 {
		t.Fatalf("outputs histogram = %v", s.OutputsPerRegion[:4])
	}
}
