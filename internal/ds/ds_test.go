package ds

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/justdo"
	"github.com/ido-nvm/ido/internal/baselines/mnemosyne"
	"github.com/ido-nvm/ido/internal/baselines/nvthreads"
	"github.com/ido-nvm/ido/internal/baselines/origin"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

func runtimes() map[string]func() persist.Runtime {
	return map[string]func() persist.Runtime{
		"ido":       func() persist.Runtime { return core.New(core.DefaultConfig()) },
		"justdo":    func() persist.Runtime { return justdo.New() },
		"atlas":     func() persist.Runtime { return atlas.New(atlas.Config{}) },
		"mnemosyne": func() persist.Runtime { return mnemosyne.New() },
		"nvthreads": func() persist.Runtime { return nvthreads.New() },
		"origin":    func() persist.Runtime { return origin.New() },
	}
}

func newEnv(t *testing.T, size int) *Env {
	t.Helper()
	reg := region.Create(size, nvm.Config{})
	return &Env{Reg: reg, LM: locks.NewManager(reg)}
}

func newRT(t *testing.T, env *Env, mk func() persist.Runtime) persist.Runtime {
	t.Helper()
	rt := mk()
	if err := rt.Attach(env.Reg, env.LM); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestStackSemanticsAllRuntimes(t *testing.T) {
	for name, mk := range runtimes() {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 1<<22)
			rt := newRT(t, env, mk)
			s, _, err := NewStack(env)
			if err != nil {
				t.Fatal(err)
			}
			th, _ := rt.NewThread()
			for i := 1; i <= 20; i++ {
				i := i
				th.Exec(func() { s.Push(th, uint64(i)) })
			}
			for i := 20; i >= 1; i-- {
				var v uint64
				var ok bool
				th.Exec(func() { v, ok = s.Pop(th) })
				if !ok || v != uint64(i) {
					t.Fatalf("pop = %d,%v want %d", v, ok, i)
				}
			}
			var ok bool
			th.Exec(func() { _, ok = s.Pop(th) })
			if ok {
				t.Fatal("pop from empty succeeded")
			}
		})
	}
}

func TestQueueSemanticsAllRuntimes(t *testing.T) {
	for name, mk := range runtimes() {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 1<<22)
			rt := newRT(t, env, mk)
			q, _, err := NewQueue(env)
			if err != nil {
				t.Fatal(err)
			}
			th, _ := rt.NewThread()
			for i := 1; i <= 20; i++ {
				i := i
				th.Exec(func() { q.Enqueue(th, uint64(i)) })
			}
			for i := 1; i <= 20; i++ {
				var v uint64
				var ok bool
				th.Exec(func() { v, ok = q.Dequeue(th) })
				if !ok || v != uint64(i) {
					t.Fatalf("deq = %d,%v want %d", v, ok, i)
				}
			}
		})
	}
}

func TestListAndMapSemanticsAllRuntimes(t *testing.T) {
	for name, mk := range runtimes() {
		if name == "nvthreads" {
			// Page-granularity REDO cannot support hand-over-hand
			// locking (see the nvthreads package doc); the paper only
			// runs NVThreads on Memcached's nested coarse locking.
			continue
		}
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 1<<23)
			rt := newRT(t, env, mk)
			m, _, err := NewHashMap(env, 4)
			if err != nil {
				t.Fatal(err)
			}
			th, _ := rt.NewThread()
			for k := uint64(1); k <= 64; k++ {
				k := k
				th.Exec(func() { m.Put(th, k, k*10) })
			}
			th.Exec(func() { m.Put(th, 7, 777) })
			for k := uint64(1); k <= 64; k++ {
				var v uint64
				var ok bool
				k := k
				th.Exec(func() { v, ok = m.Get(th, k) })
				want := k * 10
				if k == 7 {
					want = 777
				}
				if !ok || v != want {
					t.Fatalf("get(%d) = %d,%v want %d", k, v, ok, want)
				}
			}
			var ok bool
			th.Exec(func() { _, ok = m.Get(th, 999) })
			if ok {
				t.Fatal("get(999) hit")
			}
			// Buckets stay sorted with unique keys.
			for _, b := range m.buckets {
				prev := uint64(0)
				first := true
				b.Walk(func(k, v uint64) {
					if !first && k <= prev {
						t.Fatalf("bucket unsorted: %d after %d", k, prev)
					}
					prev, first = k, false
				})
			}
		})
	}
}

func TestConcurrentMapAllRuntimes(t *testing.T) {
	for name, mk := range runtimes() {
		if name == "nvthreads" {
			continue // see TestListAndMapSemanticsAllRuntimes
		}
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, 1<<24)
			rt := newRT(t, env, mk)
			m, _, err := NewHashMap(env, 8)
			if err != nil {
				t.Fatal(err)
			}
			const workers, each = 6, 60
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				th, err := rt.NewThread()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(g int, th persist.Thread) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						k := uint64(g*1000 + i + 1)
						th.Exec(func() { m.Put(th, k, k+5) })
					}
				}(g, th)
			}
			wg.Wait()
			th, _ := rt.NewThread()
			for g := 0; g < workers; g++ {
				for i := 0; i < each; i++ {
					k := uint64(g*1000 + i + 1)
					var v uint64
					var ok bool
					th.Exec(func() { v, ok = m.Get(th, k) })
					if !ok || v != k+5 {
						t.Fatalf("get(%d) = %d,%v", k, v, ok)
					}
				}
			}
		})
	}
}

// catchCrash runs fn, absorbing an injected crash.
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

// reopenIDO simulates process restart: settle the device, reattach, and
// run iDO recovery with the ds resume registry.
func reopenIDO(t *testing.T, env *Env, cm nvm.CrashMode, rng *rand.Rand) (*Env, persist.RecoveryStats) {
	t.Helper()
	env.Reg.Dev.ArmLocalCrash(-1)
	env.Reg.Dev.Crash(cm, rng)
	reg2, err := region.Attach(env.Reg.Dev)
	if err != nil {
		t.Fatal(err)
	}
	env2 := &Env{Reg: reg2, LM: locks.NewManager(reg2)}
	rt2 := core.New(core.DefaultConfig())
	if err := rt2.Attach(reg2, env2.LM); err != nil {
		t.Fatal(err)
	}
	rr := persist.NewResumeRegistry()
	RegisterAll(rr, env2)
	st, err := rt2.Recover(rr)
	if err != nil {
		t.Fatal(err)
	}
	return env2, st
}

// TestIDOStackCrashRecoveryFuzz injects crashes at random device-event
// budgets during pushes and validates LIFO consistency after recovery.
func TestIDOStackCrashRecoveryFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		env := newEnv(t, 1<<22)
		rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
		s, hdr, err := NewStack(env)
		if err != nil {
			t.Fatal(err)
		}
		env.Reg.SetRoot(1, hdr)
		th, _ := rt.NewThread()
		pushed := 0
		env.Reg.Dev.ArmLocalCrash(int64(rng.Intn(400)))
		crashed := catchCrash(func() {
			for i := 1; i <= 8; i++ {
				s.Push(th, uint64(i))
				pushed = i
			}
		})
		env2, st := reopenIDO(t, env, nvm.CrashMode(rng.Intn(3)), rng)
		s2 := AttachStack(env2, env2.Reg.Root(1))
		var vals []uint64
		s2.Walk(func(v uint64) { vals = append(vals, v) })
		// Stack must be k, k-1, ..., 1 with k >= pushed.
		k := len(vals)
		for i, v := range vals {
			if v != uint64(k-i) {
				t.Fatalf("trial %d: stack corrupt at %d: %v", trial, i, vals)
			}
		}
		if k < pushed {
			t.Fatalf("trial %d: completed pushes lost: %d < %d", trial, k, pushed)
		}
		if !crashed && k != 8 {
			t.Fatalf("trial %d: clean run depth %d", trial, k)
		}
		if st.Resumed > 0 && k != pushed+1 && k != pushed {
			t.Fatalf("trial %d: resumed push produced depth %d (pushed %d)", trial, k, pushed)
		}
	}
}

// TestIDOQueueCrashRecoveryFuzz validates FIFO prefix consistency.
func TestIDOQueueCrashRecoveryFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 80; trial++ {
		env := newEnv(t, 1<<22)
		rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
		q, hdr, err := NewQueue(env)
		if err != nil {
			t.Fatal(err)
		}
		env.Reg.SetRoot(1, hdr)
		th, _ := rt.NewThread()
		enq := 0
		env.Reg.Dev.ArmLocalCrash(int64(rng.Intn(400)))
		catchCrash(func() {
			for i := 1; i <= 8; i++ {
				q.Enqueue(th, uint64(i))
				enq = i
			}
		})
		env2, _ := reopenIDO(t, env, nvm.CrashMode(rng.Intn(3)), rng)
		q2 := AttachQueue(env2, env2.Reg.Root(1))
		want := uint64(1)
		q2.Walk(func(v uint64) {
			if v != want {
				t.Fatalf("trial %d: FIFO broken: got %d want %d", trial, v, want)
			}
			want++
		})
		if int(want-1) < enq {
			t.Fatalf("trial %d: completed enqueues lost: %d < %d", trial, want-1, enq)
		}
	}
}

// TestIDOListCrashRecoveryFuzz validates sortedness and durability of
// completed hand-over-hand inserts.
func TestIDOListCrashRecoveryFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 80; trial++ {
		env := newEnv(t, 1<<22)
		rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
		l, hdr, err := NewList(env)
		if err != nil {
			t.Fatal(err)
		}
		env.Reg.SetRoot(1, hdr)
		th, _ := rt.NewThread()
		keys := []uint64{40, 10, 50, 20, 30, 15}
		done := map[uint64]bool{}
		env.Reg.Dev.ArmLocalCrash(int64(rng.Intn(900)))
		catchCrash(func() {
			for _, k := range keys {
				l.Put(th, k, k+1)
				done[k] = true
			}
		})
		env2, _ := reopenIDO(t, env, nvm.CrashMode(rng.Intn(3)), rng)
		l2 := AttachList(env2, env2.Reg.Root(1))
		got := map[uint64]uint64{}
		prev := uint64(0)
		first := true
		l2.Walk(func(k, v uint64) {
			if !first && k <= prev {
				t.Fatalf("trial %d: unsorted: %d after %d", trial, k, prev)
			}
			prev, first = k, false
			got[k] = v
		})
		for k := range done {
			if got[k] != k+1 {
				t.Fatalf("trial %d: completed put(%d) lost: %v", trial, k, got)
			}
		}
		if len(got) > len(done)+1 {
			t.Fatalf("trial %d: %d keys present, %d completed", trial, len(got), len(done))
		}
	}
}

// TestIDOConcurrentMapCrashRecovery crashes several native threads at
// once and validates recovery of the hash map.
func TestIDOConcurrentMapCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		env := newEnv(t, 1<<24)
		rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
		m, hdr, err := NewHashMap(env, 4)
		if err != nil {
			t.Fatal(err)
		}
		env.Reg.SetRoot(1, hdr)
		const workers = 4
		completed := make([][]uint64, workers)
		threads := make([]persist.Thread, workers)
		for g := 0; g < workers; g++ {
			th, err := rt.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			threads[g] = th
		}
		var wg sync.WaitGroup
		env.Reg.Dev.ArmLocalCrash(int64(500 + rng.Intn(4000)))
		for g := 0; g < workers; g++ {
			th := threads[g]
			wg.Add(1)
			go func(g int, th persist.Thread) {
				defer wg.Done()
				catchCrash(func() {
					for i := 0; i < 12; i++ {
						k := uint64(g*100 + i + 1)
						m.Put(th, k, k*2)
						completed[g] = append(completed[g], k)
					}
				})
			}(g, th)
		}
		wg.Wait()
		env2, _ := reopenIDO(t, env, nvm.CrashMode(rng.Intn(3)), rng)
		m2 := AttachHashMap(env2, env2.Reg.Root(1))
		// Every bucket sorted; every completed put present.
		for _, b := range m2.buckets {
			prev := uint64(0)
			first := true
			b.Walk(func(k, v uint64) {
				if !first && k <= prev {
					t.Fatalf("trial %d: bucket unsorted", trial)
				}
				prev, first = k, false
			})
		}
		dev := env2.Reg.Dev
		_ = dev
		rt2 := core.New(core.DefaultConfig())
		if err := rt2.Attach(env2.Reg, env2.LM); err != nil {
			t.Fatal(err)
		}
		th2, _ := rt2.NewThread()
		for g := 0; g < workers; g++ {
			for _, k := range completed[g] {
				v, ok := m2.Get(th2, k)
				if !ok || v != k*2 {
					t.Fatalf("trial %d: completed put(%d) lost (%d,%v)", trial, k, v, ok)
				}
			}
		}
	}
}

// TestIDORegionStatsOnStructures sanity-checks Fig. 8-style stats from
// the native runtime.
func TestIDORegionStatsOnStructures(t *testing.T) {
	env := newEnv(t, 1<<23)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(env.Reg, env.LM); err != nil {
		t.Fatal(err)
	}
	s, _, _ := NewStack(env)
	th, _ := rt.NewThread()
	for i := 1; i <= 100; i++ {
		s.Push(th, uint64(i))
	}
	st := rt.Stats()
	if st.FASEs != 100 || st.Regions != 200 {
		t.Fatalf("FASEs=%d Regions=%d (want 100/200)", st.FASEs, st.Regions)
	}
	// Push regions: entry has 2 stores (node init); link has 1 (publish,
	// with the release folded in).
	if st.StoresPerRegion[1] != 100 || st.StoresPerRegion[2] != 100 {
		t.Fatalf("stores histogram: %v", st.StoresPerRegion[:4])
	}
}

// TestTransferTopAtomicity drives the composed cross-structure FASE with
// crash injection: the moved value must never be lost or duplicated.
func TestTransferTopAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		env := newEnv(t, 1<<22)
		rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
		s1, h1, err := NewStack(env)
		if err != nil {
			t.Fatal(err)
		}
		s2, h2, err := NewStack(env)
		if err != nil {
			t.Fatal(err)
		}
		env.Reg.SetRoot(1, h1)
		env.Reg.SetRoot(2, h2)
		th, _ := rt.NewThread()
		const N = 4
		for i := 1; i <= N; i++ {
			s1.Push(th, uint64(i))
		}
		env.Reg.Dev.ArmLocalCrash(int64(rng.Intn(250)))
		moves := 0
		catchCrash(func() {
			for i := 0; i < 3; i++ {
				if _, ok := TransferTop(env, th, s1, s2); !ok {
					break
				}
				moves++
			}
		})
		env2, st := reopenIDO(t, env, nvm.CrashMode(rng.Intn(3)), rng)
		r1 := AttachStack(env2, env2.Reg.Root(1))
		r2 := AttachStack(env2, env2.Reg.Root(2))
		// Conservation: the union of both stacks is exactly {1..N}, each
		// value exactly once — a torn transfer would lose or duplicate.
		seen := map[uint64]int{}
		total := 0
		r1.Walk(func(v uint64) { seen[v]++; total++ })
		n2 := 0
		r2.Walk(func(v uint64) { seen[v]++; total++; n2++ })
		if total != N {
			t.Fatalf("trial %d: %d values total, want %d (moves=%d resumed=%d)",
				trial, total, N, moves, st.Resumed)
		}
		for v := uint64(1); v <= N; v++ {
			if seen[v] != 1 {
				t.Fatalf("trial %d: value %d appears %d times", trial, v, seen[v])
			}
		}
		if n2 < moves {
			t.Fatalf("trial %d: completed moves lost: %d < %d", trial, n2, moves)
		}
	}
}

// TestTransferTopBidirectionalNoDeadlock runs transfers in both
// directions concurrently: holder-ordered acquisition must not deadlock.
func TestTransferTopBidirectionalNoDeadlock(t *testing.T) {
	env := newEnv(t, 1<<22)
	rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
	s1, _, _ := NewStack(env)
	s2, _, _ := NewStack(env)
	tseed, _ := rt.NewThread()
	for i := 1; i <= 64; i++ {
		s1.Push(tseed, uint64(i))
		s2.Push(tseed, uint64(100+i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		th, _ := rt.NewThread()
		wg.Add(1)
		go func(g int, th persist.Thread) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					TransferTop(env, th, s1, s2)
				} else {
					TransferTop(env, th, s2, s1)
				}
			}
		}(g, th)
	}
	wg.Wait()
	// Conservation.
	total := 0
	s1.Walk(func(uint64) { total++ })
	s2.Walk(func(uint64) { total++ })
	if total != 128 {
		t.Fatalf("values total = %d, want 128", total)
	}
}

// TestIDOStackCrashFuzzWithEvictions repeats the stack fuzz on a device
// that spontaneously evicts dirty cache lines (EvictionRate), so data can
// become durable EARLIER than the protocol flushed it — the other half of
// the volatile-cache adversary. Crash consistency must be unaffected.
func TestIDOStackCrashFuzzWithEvictions(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		reg := region.Create(1<<22, nvm.Config{Size: 1 << 22, EvictionRate: 3})
		env := &Env{Reg: reg, LM: locks.NewManager(reg)}
		rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
		s, hdr, err := NewStack(env)
		if err != nil {
			t.Fatal(err)
		}
		env.Reg.SetRoot(1, hdr)
		th, _ := rt.NewThread()
		pushed := 0
		env.Reg.Dev.ArmLocalCrash(int64(rng.Intn(400)))
		catchCrash(func() {
			for i := 1; i <= 8; i++ {
				s.Push(th, uint64(i))
				pushed = i
			}
		})
		env2, _ := reopenIDO(t, env, nvm.CrashMode(rng.Intn(3)), rng)
		s2 := AttachStack(env2, env2.Reg.Root(1))
		var vals []uint64
		s2.Walk(func(v uint64) { vals = append(vals, v) })
		k := len(vals)
		for i, v := range vals {
			if v != uint64(k-i) {
				t.Fatalf("trial %d: stack corrupt: %v", trial, vals)
			}
		}
		if k < pushed {
			t.Fatalf("trial %d: completed pushes lost: %d < %d", trial, k, pushed)
		}
	}
}
