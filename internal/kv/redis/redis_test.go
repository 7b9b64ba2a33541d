package redis

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/justdo"
	"github.com/ido-nvm/ido/internal/baselines/nvml"
	"github.com/ido-nvm/ido/internal/baselines/origin"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// The paper's Redis comparison runs iDO, JUSTDO, Atlas, and NVML (Fig. 6).
func runtimes() map[string]func() persist.Runtime {
	return map[string]func() persist.Runtime{
		"ido":    func() persist.Runtime { return core.New(core.DefaultConfig()) },
		"justdo": func() persist.Runtime { return justdo.New() },
		"atlas":  func() persist.Runtime { return atlas.New(atlas.Config{}) },
		"nvml":   func() persist.Runtime { return nvml.New() },
		"origin": func() persist.Runtime { return origin.New() },
	}
}

func newEnv(t *testing.T, size int) (*Env, *region.Region, *locks.Manager) {
	t.Helper()
	reg := region.Create(size, nvm.Config{})
	return &Env{Reg: reg}, reg, locks.NewManager(reg)
}

func TestDBSemanticsAllRuntimes(t *testing.T) {
	for name, mk := range runtimes() {
		t.Run(name, func(t *testing.T) {
			env, reg, lm := newEnv(t, 1<<23)
			rt := mk()
			if err := rt.Attach(reg, lm); err != nil {
				t.Fatal(err)
			}
			db, _, err := New(env, 32)
			if err != nil {
				t.Fatal(err)
			}
			th, _ := rt.NewThread()
			for k := uint64(1); k <= 200; k++ {
				k := k
				th.Exec(func() { db.Set(th, k, k*7) })
			}
			th.Exec(func() { db.Set(th, 42, 4242) })
			for k := uint64(1); k <= 200; k++ {
				v, ok := db.Get(th, k)
				want := k * 7
				if k == 42 {
					want = 4242
				}
				if !ok || v != want {
					t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, want)
				}
			}
			if _, ok := db.Get(th, 999); ok {
				t.Fatal("get(999) hit")
			}
			for k := uint64(1); k <= 100; k++ {
				var found bool
				k := k
				th.Exec(func() { found = db.Del(th, k) })
				if !found {
					t.Fatalf("del(%d) missed", k)
				}
			}
			if db.Count() != 100 {
				t.Fatalf("count = %d", db.Count())
			}
		})
	}
}

func catchCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return
}

// validate walks the dictionary checking invariants; returns contents.
func validate(t *testing.T, reg *region.Region, tbl uint64) map[uint64]uint64 {
	t.Helper()
	dev := reg.Dev
	n := dev.Load64(tbl + tBuckets)
	out := map[uint64]uint64{}
	for b := uint64(0); b < n; b++ {
		steps := 0
		for cur := dev.Load64(tbl + tArray + b*8); cur != 0; cur = dev.Load64(cur + eNext) {
			if steps++; steps > 1<<16 {
				t.Fatal("chain cycle")
			}
			k := dev.Load64(cur + eKey)
			if _, dup := out[k]; dup {
				t.Fatalf("duplicate key %d", k)
			}
			if hash(k, n) != b {
				t.Fatalf("key %d in wrong bucket", k)
			}
			out[k] = dev.Load64(cur + eVal)
		}
	}
	if got := dev.Load64(tbl + tCount); got != uint64(len(out)) {
		t.Fatalf("count %d != entries %d", got, len(out))
	}
	return out
}

// TestIDODBCrashRecoveryFuzz crashes mixed SET/DEL traffic at random
// points and verifies recovery restores a consistent prefix state.
func TestIDODBCrashRecoveryFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		env, reg, lm := newEnv(t, 1<<23)
		rt := core.New(core.DefaultConfig())
		if err := rt.Attach(reg, lm); err != nil {
			t.Fatal(err)
		}
		db, tbl, err := New(env, 8)
		if err != nil {
			t.Fatal(err)
		}
		reg.SetRoot(1, tbl)
		th, _ := rt.NewThread()
		type op struct {
			del  bool
			k, v uint64
		}
		var plan []op
		for i := 0; i < 30; i++ {
			k := uint64(rng.Intn(10) + 1)
			plan = append(plan, op{del: rng.Intn(4) == 0, k: k, v: uint64(i + 500)})
		}
		reg.Dev.ArmLocalCrash(int64(rng.Intn(2500)))
		done := 0
		catchCrash(func() {
			for _, o := range plan {
				if o.del {
					db.Del(th, o.k)
				} else {
					db.Set(th, o.k, o.v)
				}
				done++
			}
		})
		reg.Dev.ArmLocalCrash(-1)
		reg.Dev.Crash(nvm.CrashMode(rng.Intn(3)), rng)
		reg2, err := region.Attach(reg.Dev)
		if err != nil {
			t.Fatal(err)
		}
		env2 := &Env{Reg: reg2}
		rt2 := core.New(core.DefaultConfig())
		if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
			t.Fatal(err)
		}
		rr := persist.NewResumeRegistry()
		Register(rr, env2)
		if _, err := rt2.Recover(rr); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := validate(t, reg2, reg2.Root(1))
		apply := func(k int) map[uint64]uint64 {
			m := map[uint64]uint64{}
			for i := 0; i < k && i < len(plan); i++ {
				if plan[i].del {
					delete(m, plan[i].k)
				} else {
					m[plan[i].k] = plan[i].v
				}
			}
			return m
		}
		match := func(m map[uint64]uint64) bool {
			if len(m) != len(got) {
				return false
			}
			for k, v := range m {
				if got[k] != v {
					return false
				}
			}
			return true
		}
		if !match(apply(done)) && !match(apply(done+1)) {
			t.Fatalf("trial %d (done=%d): db %v matches neither prefix", trial, done, got)
		}
	}
}

// TestNVMLDBCrashRollback exercises the Fig. 6 NVML pairing: a crash
// mid-SET rolls the partial update back.
func TestNVMLDBCrashRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		env, reg, lm := newEnv(t, 1<<22)
		rt := nvml.New()
		if err := rt.Attach(reg, lm); err != nil {
			t.Fatal(err)
		}
		db, tbl, _ := New(env, 8)
		reg.SetRoot(1, tbl)
		th, _ := rt.NewThread()
		for k := uint64(1); k <= 10; k++ {
			db.Set(th, k, k)
		}
		reg.Dev.ArmLocalCrash(int64(rng.Intn(300)))
		done := uint64(0)
		catchCrash(func() {
			for k := uint64(11); k <= 20; k++ {
				db.Set(th, k, k)
				done = k
			}
		})
		reg.Dev.ArmLocalCrash(-1)
		reg.Dev.Crash(nvm.CrashPersistAll, nil)
		reg2, err := region.Attach(reg.Dev)
		if err != nil {
			t.Fatal(err)
		}
		rt2 := nvml.New()
		if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt2.Recover(nil); err != nil {
			t.Fatal(err)
		}
		got := validate(t, reg2, reg2.Root(1))
		last := done
		if last == 0 {
			last = 10 // none of the second batch completed
		}
		for k := uint64(1); k <= last; k++ {
			if got[k] != k {
				t.Fatalf("trial %d: completed set(%d) lost", trial, k)
			}
		}
		if uint64(len(got)) != last {
			t.Fatalf("trial %d: %d entries, want %d (partial FASE rolled back)", trial, len(got), last)
		}
	}
}
