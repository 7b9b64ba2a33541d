package baselines_test

import (
	"testing"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/mnemosyne"
	"github.com/ido-nvm/ido/internal/baselines/nvml"
	"github.com/ido-nvm/ido/internal/baselines/nvthreads"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// listRuntimes are the baselines that keep a log list and walk it at
// recovery.
var listRuntimes = []struct {
	name string
	mk   func() persist.Runtime
}{
	{"nvml", func() persist.Runtime { return nvml.New() }},
	{"mnemosyne", func() persist.Runtime { return mnemosyne.New() }},
	{"nvthreads", func() persist.Runtime { return nvthreads.New() }},
	{"atlas", func() persist.Runtime { return atlas.New(atlas.Config{}) }},
	{"atlas-retain", func() persist.Runtime { return atlas.New(atlas.Config{Retain: true}) }},
}

// TestRestartReusesLogs runs crash → Recover → 4×NewThread incarnations
// on every baseline that keeps a log list, and requires each restart to
// cost the same: every Recover walks the 4 logs the first incarnation
// made, the heap holds the same bytes, the threads come back as ids 0–3
// and Stats counts each once. In one incarnation a device budget fires
// inside the first FASE a reused thread runs, and the next Recover must
// leave that FASE whole or absent.
func TestRestartReusesLogs(t *testing.T) {
	const (
		k            = 4
		incarnations = 5
		crashAt      = 3 // the incarnation whose first FASE dies on the device budget
		huge         = int64(1) << 40
	)
	for _, row := range listRuntimes {
		t.Run(row.name, func(t *testing.T) {
			reg := region.Create(1<<22, nvm.Config{})
			lm := locks.NewManager(reg)
			lock, err := lm.Create()
			if err != nil {
				t.Fatal(err)
			}
			holder := lock.Holder()
			cell, _ := reg.Alloc.Alloc(8)
			defer func() { reg.Dev.ArmLocalCrash(-1) }()
			var want uint64 // FASEs completed on cell
			var allocated uint64
			var firstFASE int64 // device events of a reused thread's first FASE
			for inc := 0; inc <= incarnations; inc++ {
				rt := row.mk()
				if inc > 0 {
					if reg, err = reg.Crash(nvm.CrashDiscard, nil); err != nil {
						t.Fatal(err)
					}
					lm = locks.NewManager(reg)
					lock = lm.ByHolder(holder)
				}
				if err := rt.Attach(reg, lm); err != nil {
					t.Fatal(err)
				}
				if inc > 0 {
					st, err := rt.Recover(persist.NewResumeRegistry())
					if err != nil {
						t.Fatalf("incarnation %d: recover: %v", inc, err)
					}
					if st.Threads != k {
						t.Fatalf("incarnation %d: recovery walked %d logs, want %d", inc, st.Threads, k)
					}
					got := reg.Dev.Load64(cell)
					if got != want && !(inc == crashAt+1 && got == want+1) {
						t.Fatalf("incarnation %d: cell %d after recovery, want %d", inc, got, want)
					}
					want = got
				}
				ths := make([]persist.Thread, k)
				for i := range ths {
					if ths[i], err = rt.NewThread(); err != nil {
						t.Fatal(err)
					}
					if id := ths[i].ID(); id != i {
						t.Fatalf("incarnation %d: thread %d has id %d", inc, i, id)
					}
				}
				if a := reg.Alloc.Stats().AllocatedBytes; inc == 0 {
					allocated = a
				} else if a != allocated {
					t.Fatalf("incarnation %d: %d bytes allocated, %d in the first", inc, a, allocated)
				}
				inc1 := func(th persist.Thread) {
					th.Exec(func() {
						th.Lock(lock)
						th.Store64(cell, th.Load64(cell)+1)
						th.Unlock(lock)
					})
				}
				switch inc {
				case 1:
					reg.Dev.ArmLocalCrash(huge)
					inc1(ths[0])
					firstFASE = huge - reg.Dev.LocalCrashBudgetRemaining()
					reg.Dev.ArmLocalCrash(-1)
					ths = ths[1:]
					want++
				case crashAt:
					reg.Dev.ArmLocalCrash(firstFASE / 2)
					if !crashes(func() { inc1(ths[0]) }) {
						t.Fatalf("incarnation %d: a budget of %d events never fired", inc, firstFASE/2)
					}
					reg.Dev.ArmLocalCrash(-1)
					continue
				}
				for _, th := range ths {
					inc1(th)
					want++
				}
				if st := rt.Stats(); st.FASEs != k {
					t.Fatalf("incarnation %d: Stats counts %d FASEs, the %d threads ran %d", inc, st.FASEs, k, k)
				}
			}
		})
	}
}

// crashes runs fn and reports whether an injected device crash ended it.
func crashes(fn func()) (crashed bool) {
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

// TestRecoverAfterNewThreadFails: a runtime that walks a log list hands
// the logs its Recover walked out as threads, so it refuses to recover
// once one is out — a fresh runtime's thread or a reused one.
func TestRecoverAfterNewThreadFails(t *testing.T) {
	for _, row := range listRuntimes {
		t.Run(row.name, func(t *testing.T) {
			reg, _, rt := setup(t, row.mk)
			if _, err := rt.NewThread(); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Recover(persist.NewResumeRegistry()); err == nil {
				t.Fatal("Recover after NewThread succeeded")
			}
			reg2, err := reg.Crash(nvm.CrashDiscard, nil)
			if err != nil {
				t.Fatal(err)
			}
			rt2 := row.mk()
			if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
				t.Fatal(err)
			}
			if _, err := rt2.Recover(persist.NewResumeRegistry()); err != nil {
				t.Fatal(err)
			}
			if _, err := rt2.NewThread(); err != nil {
				t.Fatal(err)
			}
			if _, err := rt2.Recover(persist.NewResumeRegistry()); err == nil {
				t.Fatal("Recover after a reused thread was handed out succeeded")
			}
		})
	}
}
