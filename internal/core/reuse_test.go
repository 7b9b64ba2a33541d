package core

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
)

// TestRestartReusesLogs runs crash → Recover → recreate-K-threads cycles
// and requires the restart to cost the same every time: the walk visits K
// logs, the heap holds the same bytes, and the threads come back with
// their ids. Each cycle the last thread dies after the store of a second
// FASE, so resumed logs are reused too; in one cycle a local crash budget
// fires inside the first FASE a reused thread runs, and the next Recover
// must finish it.
func TestRestartReusesLogs(t *testing.T) {
	const (
		k       = 3
		cycles  = 20
		crashAt = 7 // the cycle whose first FASE dies on the device budget
		huge    = int64(1) << 40
	)
	f := newFixture(t)
	rng := rand.New(rand.NewSource(28))
	want := f.reg.Dev.Load64(f.ctr) // the counter after every completed or resumed FASE
	var toStore int64               // device events of a reused thread's first FASE through its store
	var allocated uint64
	defer f.reg.Dev.ArmLocalCrash(-1)
	for cycle := 0; cycle <= cycles; cycle++ {
		if cycle > 0 {
			f = f.reopen(t, nvm.CrashRandom, rng)
			st, err := f.rt.Recover(f.registry())
			if err != nil {
				t.Fatalf("cycle %d: recover: %v", cycle, err)
			}
			if st.LogEntries != k || st.Resumed != 1 {
				t.Fatalf("cycle %d: recovery walked %d logs and resumed %d; want %d and 1", cycle, st.LogEntries, st.Resumed, k)
			}
			if logs := inspect(t, f.reg); len(logs) != k {
				t.Fatalf("cycle %d: %d logs on the list, want %d", cycle, len(logs), k)
			}
			if got := f.reg.Dev.Load64(f.ctr); got != want {
				t.Fatalf("cycle %d: counter %d after recovery, the replayed FASEs give %d", cycle, got, want)
			}
		}
		ths := make([]persist.Thread, k)
		for i := range ths {
			th, err := f.rt.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			if id := th.(*Thread).ID(); id != i {
				t.Fatalf("cycle %d: thread %d has id %d", cycle, i, id)
			}
			ths[i] = th
		}
		if a := f.reg.Alloc.Stats().AllocatedBytes; cycle == 0 {
			allocated = a
		} else if a != allocated {
			t.Fatalf("cycle %d: %d bytes allocated, %d before the first crash", cycle, a, allocated)
		}

		switch cycle {
		case 1:
			// Measure the first FASE of a reused thread up to its store.
			f.reg.Dev.ArmLocalCrash(huge)
			f.incrementFASEThen(ths[0], func() { toStore = huge - f.reg.Dev.LocalCrashBudgetRemaining() })
			f.reg.Dev.ArmLocalCrash(-1)
			want++
		case crashAt:
			// The store lands; Unlock's first device event does not.
			f.reg.Dev.ArmLocalCrash(toStore)
			if !runWithDeviceCrash(func() { f.incrementFASE(ths[0], &crasher{k: -1}) }) {
				t.Fatalf("cycle %d: the local crash budget of %d events never fired", cycle, toStore)
			}
			f.reg.Dev.ArmLocalCrash(-1)
			want++ // published: the next Recover resumes it
			continue
		}
		for _, th := range ths {
			f.incrementFASE(th, &crasher{k: -1})
			want++
		}
		if !runWithCrash(func() { f.incrementFASE(ths[k-1], &crasher{k: 5}) }) {
			t.Fatalf("cycle %d: crash point did not fire", cycle)
		}
		want++ // crashed after its store: resumed
	}
}

// incrementFASEThen is incrementFASE with a hook right after the store.
func (f *fixture) incrementFASEThen(th persist.Thread, afterStore func()) {
	th.Lock(f.lock)
	th.Boundary(ridIncA)
	v := th.Load64(f.ctr)
	th.Boundary(ridIncB, persist.RV(0, v))
	th.Store64(f.ctr, v+1)
	afterStore()
	th.Unlock(f.lock)
}

// runWithDeviceCrash runs fn and reports whether an injected device crash
// ended it.
func runWithDeviceCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// TestRecoverReusesOnlyItsLayout: a runtime without persist coalescing
// writes its logs a cache line apart, so the stride-8 logs a default
// runtime left behind are not its to hand out.
func TestRecoverReusesOnlyItsLayout(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 2; i++ {
		if _, err := f.rt.NewThread(); err != nil {
			t.Fatal(err)
		}
	}
	reg2, err := f.reg.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := New(Config{Coalesce: false})
	if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Recover(persist.NewResumeRegistry()); err != nil {
		t.Fatal(err)
	}
	th, err := rt2.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if id := th.(*Thread).ID(); id != 2 {
		t.Fatalf("the no-coalesce thread has id %d, want a new log's 2", id)
	}
	if logs := inspect(t, reg2); len(logs) != 3 {
		t.Fatalf("%d logs on the list, want the 2 stride-8 ones and a new one", len(logs))
	}
}

// TestRecoverAfterNewThreadFails: recovery rebuilds the threads a runtime
// hands out, so it cannot run once one is out.
func TestRecoverAfterNewThreadFails(t *testing.T) {
	f := newFixture(t)
	if _, err := f.rt.NewThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.Recover(f.registry()); err == nil {
		t.Fatal("Recover after NewThread succeeded")
	}
	// A recovered runtime hands out its adopted thread, then refuses too.
	f2 := f.reopen(t, nvm.CrashDiscard, nil)
	st, err := f2.rt.Recover(f2.registry())
	if err != nil {
		t.Fatal(err)
	}
	if a := st.Audit.Threads[0].Action; a != obs.AuditIdle {
		t.Fatalf("audit action %q, want %q", a, obs.AuditIdle)
	}
	if _, err := f2.rt.NewThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.rt.Recover(f2.registry()); err == nil {
		t.Fatal("Recover after a reused thread was handed out succeeded")
	}
}
