package core

import (
	"fmt"
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
// budget across a whole two-thread Recover pass. Every budget that fires
// must surface as nvm.CrashSignal — never as a returned error, whether it
// fired in the walk, a restore or a resume goroutine — and only once every
// resume goroutine has stopped: a pass that re-raised with one still
// running would leak it, and the locks it holds.
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
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
					c = true
				}
			}()
			_, recErr = f2.rt.Recover(rr)
			return false
		}()
		fired := f2.reg.Dev.LocalCrashFired()
		f2.reg.Dev.ArmLocalCrash(-1)
		if !fired {
			if crashed || recErr != nil {
				t.Fatalf("budget %d: recover failed without an injected crash: crash %v, error %v", budget, crashed, recErr)
			}
			if budget == 1 {
				t.Fatal("budget 1 did not crash: injection is not reaching Recover")
			}
			break // budget outlasted the pass: every point swept
		}
		if !crashed {
			t.Fatalf("budget %d: the injected crash surfaced as error %v, not as nvm.CrashSignal", budget, recErr)
		}
		crashes++
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base+2 {
			if time.Now().After(deadline) {
				t.Fatalf("budget %d: %d goroutines above baseline %d after a crash during Recover — resume goroutines leaked",
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

// TestRecoverScopedCrashSweepConverges arms a recovery-scoped budget,
// crashes a two-thread Recover pass at every recovery event, re-settles,
// and proves a second Recover converges to the uninterrupted outcome:
// both counters incremented, both locks free.
func TestRecoverScopedCrashSweepConverges(t *testing.T) {
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

// Region IDs and root of the dependent-resume fixture.
const (
	ridDepA1 = 0x161
	ridDepA2 = 0x162
	ridDepA3 = 0x163
	ridDepA4 = 0x164
	ridDepB1 = 0x171

	rootDepWords = 7 // two words: mark, then seen
)

// interruptDependent leaves two FASEs whose resumes depend on each other.
// Thread B holds lock 1, has published its increment of counter 1, and
// dies. Thread A, created later and so walked first, holds lock 0, has
// incremented counter 0, and dies in the region that next takes lock 1:
// its resume has to wait for B's to release it.
func (f *duoFixture) interruptDependent(t *testing.T) {
	t.Helper()
	words, err := f.reg.Alloc.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	f.reg.SetRoot(rootDepWords, words)
	b, err := f.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	runWithCrash(func() {
		b.Lock(f.lock[1])
		b.Boundary(ridChB0)
		v := b.Load64(f.ctr[1])
		b.Boundary(ridDepB1, persist.RV(0, v))
		b.Store64(f.ctr[1], v+1)
		panic(errCrash{})
	})
	a, err := f.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	runWithCrash(func() {
		a.Lock(f.lock[0])
		a.Boundary(ridChA0)
		v := a.Load64(f.ctr[0])
		a.Boundary(ridDepA1, persist.RV(0, v))
		a.Store64(f.ctr[0], v+1)
		a.Boundary(ridDepA2)
		a.Store64(words, v+1)
		panic(errCrash{}) // lock 1 is B's: the Lock would never return
	})
}

// dependentRegistry resumes the regions interruptDependent can publish.
// A's last region records, in the word after mark, the counter 1 it reads
// under lock 1: B's increment, if A resumed only after B released it.
func (f *duoFixture) dependentRegistry() *persist.ResumeRegistry {
	words := f.reg.Root(rootDepWords)
	rr := persist.NewResumeRegistry()
	rr.Register(ridDepA2, func(th persist.Thread, rf []uint64) {
		th.Store64(words, rf[0]+1)
		th.Lock(f.lock[1])
		th.Boundary(ridDepA3)
		v := th.Load64(f.ctr[1])
		th.Boundary(ridDepA4, persist.RV(1, v))
		th.Store64(words+8, v)
		th.Unlock(f.lock[1])
		th.Unlock(f.lock[0])
	})
	rr.Register(ridDepA4, func(th persist.Thread, rf []uint64) {
		th.Store64(words+8, rf[1])
		th.Unlock(f.lock[1])
		th.Unlock(f.lock[0])
	})
	rr.Register(ridDepB1, func(th persist.Thread, rf []uint64) {
		th.Store64(f.ctr[1], rf[0]+1)
		th.Unlock(f.lock[1])
	})
	return rr
}

// recoverWithin runs Recover and fails the test if it has not returned
// after 10 s. It reports whether the pass crashed.
func (f *duoFixture) recoverWithin(t *testing.T, label string, rr *persist.ResumeRegistry) (crashed bool) {
	t.Helper()
	type result struct {
		crashed bool
		err     error
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(nvm.CrashSignal); !ok {
					panic(r)
				}
				done <- result{crashed: true}
			}
		}()
		_, err := f.rt.Recover(rr)
		done <- result{err: err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("%s: recover: %v", label, res.err)
		}
		return res.crashed
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Recover still blocked after 10 s: a resumed FASE waits on a lock another interrupted FASE holds", label)
		return false
	}
}

// checkDependent holds a recovered dependent fixture to the uninterrupted
// outcome: both counters advanced, A saw B's increment, both locks free.
func (f *duoFixture) checkDependent(t *testing.T, label string) {
	t.Helper()
	words := f.reg.Root(rootDepWords)
	dev := f.reg.Dev
	got := [4]uint64{dev.Load64(f.ctr[0]), dev.Load64(f.ctr[1]), dev.Load64(words), dev.Load64(words + 8)}
	if got != [4]uint64{6, 6, 6, 6} {
		t.Fatalf("%s: counter 0, counter 1, mark, seen = %v, want all 6", label, got)
	}
	for i := 0; i < 2; i++ {
		if !f.lock[i].TryAcquire() {
			t.Fatalf("%s: lock %d still held after recovery", label, i)
		}
		f.lock[i].Release()
	}
}

// TestRecoverResumesDependentThreads recovers two interrupted FASEs where
// the one walked first resumes into a Lock the other holds. Recovery must
// finish whether or not a recovery-scoped budget is armed — each
// interrupted FASE resumes on its own recovery thread, as in §III-C — and
// a pass crashed at any of its device events must re-recover to the same
// outcome.
func TestRecoverResumesDependentThreads(t *testing.T) {
	for _, armed := range []bool{false, true} {
		f := newDuoFixture(t)
		f.interruptDependent(t)
		f2 := f.reopen(t, nvm.CrashDiscard, nil)
		if armed {
			f2.reg.Dev.ArmRecoveryCrash(1 << 40)
		}
		label := fmt.Sprintf("armed=%v", armed)
		if f2.recoverWithin(t, label, f2.dependentRegistry()) {
			t.Fatalf("%s: recovery crashed with no budget to spend", label)
		}
		f2.reg.Dev.ArmLocalCrash(-1)
		f2.checkDependent(t, label)
	}

	crashes := 0
	for budget := int64(1); ; budget++ {
		f := newDuoFixture(t)
		f.interruptDependent(t)
		f2 := f.reopen(t, nvm.CrashDiscard, nil)
		f2.reg.Dev.ArmRecoveryCrash(budget)
		label := fmt.Sprintf("budget %d", budget)
		crashed := f2.recoverWithin(t, label, f2.dependentRegistry())
		f2.reg.Dev.ArmLocalCrash(-1)
		if !crashed {
			if budget == 1 {
				t.Fatal("budget 1 did not crash: recovery-scoped injection is not reaching Recover")
			}
			f2.checkDependent(t, label)
			break
		}
		crashes++
		f3 := f2.reopen(t, nvm.CrashRandom, rand.New(rand.NewSource(budget)))
		label += " re-recovery"
		if f3.recoverWithin(t, label, f3.dependentRegistry()) {
			t.Fatalf("%s: crashed with no budget armed", label)
		}
		f3.checkDependent(t, label)
	}
	t.Logf("swept %d recovery crash points", crashes)
}
