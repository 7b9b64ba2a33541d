package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Region IDs for the two-thread chaos fixtures.
const (
	ridChA0 = 0x141
	ridChB0 = 0x142
	ridChA1 = 0x151
	ridChB1 = 0x152
)

// duoFixture holds two locks and two counters so two threads can each be
// interrupted mid-FASE independently.
type duoFixture struct {
	reg  *region.Region
	lm   *locks.Manager
	rt   *Runtime
	lock [2]*locks.Lock
	ctr  [2]uint64
}

const (
	rootDuoCtr0  = 3
	rootDuoCtr1  = 4
	rootDuoLock0 = 5
	rootDuoLock1 = 6
)

func newDuoFixture(t *testing.T) *duoFixture {
	t.Helper()
	reg := region.Create(1<<18, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := New(DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
	f := &duoFixture{reg: reg, lm: lm, rt: rt}
	for i := 0; i < 2; i++ {
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
		f.lock[i] = lock
		f.ctr[i] = ctr
	}
	reg.SetRoot(rootDuoCtr0, f.ctr[0])
	reg.SetRoot(rootDuoCtr1, f.ctr[1])
	reg.SetRoot(rootDuoLock0, f.lock[0].Holder())
	reg.SetRoot(rootDuoLock1, f.lock[1].Holder())
	return f
}

func (f *duoFixture) reopen(t *testing.T, mode nvm.CrashMode, rng *rand.Rand) *duoFixture {
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
	return &duoFixture{
		reg:  reg2,
		lm:   lm2,
		rt:   rt2,
		lock: [2]*locks.Lock{lm2.ByHolder(reg2.Root(rootDuoLock0)), lm2.ByHolder(reg2.Root(rootDuoLock1))},
		ctr:  [2]uint64{reg2.Root(rootDuoCtr0), reg2.Root(rootDuoCtr1)},
	}
}

// incrementFASE runs one counter-i increment with crash points.
func (f *duoFixture) incrementFASE(th persist.Thread, i int, c *crasher) {
	ridA, ridB := uint64(ridChA0), uint64(ridChB0)
	if i == 1 {
		ridA, ridB = ridChA1, ridChB1
	}
	c.point()
	th.Lock(f.lock[i])
	c.point()
	th.Boundary(ridA)
	c.point()
	v := th.Load64(f.ctr[i])
	c.point()
	th.Boundary(ridB, persist.RV(0, v))
	c.point()
	th.Store64(f.ctr[i], v+1)
	c.point()
	th.Unlock(f.lock[i])
	c.point()
}

func (f *duoFixture) registry() *persist.ResumeRegistry {
	rr := persist.NewResumeRegistry()
	for i := 0; i < 2; i++ {
		i := i
		ridA, ridB := uint64(ridChA0), uint64(ridChB0)
		if i == 1 {
			ridA, ridB = ridChA1, ridChB1
		}
		rr.Register(ridA, func(th persist.Thread, rf []uint64) {
			v := th.Load64(f.ctr[i])
			th.Boundary(ridB, persist.RV(0, v))
			th.Store64(f.ctr[i], v+1)
			th.Unlock(f.lock[i])
		})
		rr.Register(ridB, func(th persist.Thread, rf []uint64) {
			th.Store64(f.ctr[i], rf[0]+1)
			th.Unlock(f.lock[i])
		})
	}
	return rr
}

// interruptBoth leaves both threads mid-FASE, past their first store (so
// each has published a recovery_pc over its recorded lock).
func (f *duoFixture) interruptBoth(t *testing.T) {
	t.Helper()
	for i := 0; i < 2; i++ {
		th, err := f.rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		if !runWithCrash(func() { f.incrementFASE(th, i, &crasher{k: 5}) }) {
			t.Fatalf("thread %d: crash point did not fire", i)
		}
	}
}

// TestRecoverCrashMidPassLeaksNoGoroutines sweeps an all-events crash
// budget across the whole parallel Recover pass. Pre-fix, a CrashSignal
// that unwound the log walk left the already-launched restore goroutines
// parked forever on the resume gate (and holding the re-acquired locks):
// this sweep's goroutine count climbed by one per crashed pass. Recover
// must instead drain every launched goroutine before re-raising the
// crash.
func TestRecoverCrashMidPassLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	crashes := 0
	for budget := int64(1); ; budget++ {
		f := newDuoFixture(t)
		f.interruptBoth(t)
		f2 := f.reopen(t, nvm.CrashDiscard, nil)
		rr := f2.registry()
		f2.reg.Dev.ArmLocalCrash(budget)
		var recErr error
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
				}
			}()
			_, recErr = f2.rt.Recover(rr)
		}()
		fired := f2.reg.Dev.LocalCrashFired()
		f2.reg.Dev.ArmLocalCrash(-1)
		if !fired {
			if recErr != nil {
				t.Fatalf("budget %d: recover failed without an injected crash: %v", budget, recErr)
			}
			if budget == 1 {
				t.Fatal("budget 1 did not crash: injection is not reaching Recover")
			}
			break // budget outlasted the pass: every point swept
		}
		crashes++
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base+2 {
			if time.Now().After(deadline) {
				t.Fatalf("budget %d: %d goroutines above baseline %d after a crash during Recover — restore goroutines leaked on the gate",
					budget, runtime.NumGoroutine()-base, base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if crashes == 0 {
		t.Fatal("sweep never crashed")
	}
	t.Logf("swept %d crash points through Recover", crashes)
}

// TestRecoverSerialPathCrashSweepConverges arms a recovery-scoped budget
// (which switches Recover to its deterministic serial path), crashes the
// pass at every recovery event, re-settles, and proves a second Recover
// converges to the uninterrupted outcome: both counters incremented,
// both locks free.
func TestRecoverSerialPathCrashSweepConverges(t *testing.T) {
	crashes := 0
	for budget := int64(1); ; budget++ {
		f := newDuoFixture(t)
		f.interruptBoth(t)
		f2 := f.reopen(t, nvm.CrashDiscard, nil)
		f2.reg.Dev.ArmRecoveryCrash(budget)
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
					c = true
				}
			}()
			if _, err := f2.rt.Recover(f2.registry()); err != nil {
				t.Fatalf("budget %d: recover: %v", budget, err)
			}
			return false
		}()
		f2.reg.Dev.ArmLocalCrash(-1)
		if !crashed {
			if budget == 1 {
				t.Fatal("budget 1 did not crash: recovery-scoped injection is not reaching Recover")
			}
			break
		}
		crashes++
		seed := budget
		f3 := f2.reopen(t, nvm.CrashRandom, rand.New(rand.NewSource(seed)))
		st, err := f3.rt.Recover(f3.registry())
		if err != nil {
			t.Fatalf("budget %d seed %d: second recover: %v", budget, seed, err)
		}
		if st.Attempt == 0 {
			t.Fatalf("budget %d: second recover reports attempt 0", budget)
		}
		for i := 0; i < 2; i++ {
			if got := f3.reg.Dev.Load64(f3.ctr[i]); got != 6 {
				t.Fatalf("budget %d seed %d: counter %d = %d, want 6", budget, seed, i, got)
			}
			if !f3.lock[i].TryAcquire() {
				t.Fatalf("budget %d seed %d: lock %d still held after re-recovery", budget, seed, i)
			}
			f3.lock[i].Release()
		}
	}
	if crashes == 0 {
		t.Fatal("sweep never crashed")
	}
	t.Logf("swept %d recovery crash points", crashes)
}
