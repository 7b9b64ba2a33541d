package irprog

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/vm"
)

type world struct {
	reg  *region.Region
	lm   *locks.Manager
	m    *vm.Machine
	prog *compile.Compiled
}

func build(t *testing.T, mode vm.Mode) *world {
	t.Helper()
	prog, err := Compile(compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<23, nvm.Config{})
	lm := locks.NewManager(reg)
	return &world{reg: reg, lm: lm, m: vm.New(reg, lm, prog, mode), prog: prog}
}

func (w *world) reopen(t *testing.T, cm nvm.CrashMode, rng *rand.Rand, mode vm.Mode) *world {
	t.Helper()
	reg2, err := w.reg.Crash(cm, rng)
	if err != nil {
		t.Fatal(err)
	}
	lm2 := locks.NewManager(reg2)
	return &world{reg: reg2, lm: lm2, m: vm.New(reg2, lm2, w.prog, mode), prog: w.prog}
}

// deviceEvents counts the device events fn issues on w's device: crash
// budgets 0..n-1 fire inside fn, n runs it to the end.
func (w *world) deviceEvents(fn func()) int64 {
	const probe = int64(1) << 40
	w.reg.Dev.ArmLocalCrash(probe)
	defer w.reg.Dev.ArmLocalCrash(-1)
	fn()
	return probe - w.reg.Dev.LocalCrashBudgetRemaining()
}

func call(t *testing.T, th *vm.Thread, fn string, args ...uint64) []uint64 {
	t.Helper()
	rets, err := th.Call(fn, args...)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	return rets
}

func TestAllKernelsCompile(t *testing.T) {
	c, err := Compile(compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"stack_push", "stack_pop", "queue_enq", "queue_deq",
		"list_insert", "list_get", "map_put", "map_get",
		"mc_set", "mc_get", "redis_set", "redis_get"} {
		cf, ok := c.Funcs[fn]
		if !ok {
			t.Fatalf("missing kernel %s", fn)
		}
		if fn != "redis_get" && !cf.HasFASEs {
			t.Fatalf("%s has no FASEs", fn)
		}
	}
	if len(c.Resolve) < 30 {
		t.Fatalf("suspiciously few regions: %d", len(c.Resolve))
	}
}

func TestStackSemantics(t *testing.T) {
	w := build(t, vm.ModeIDO)
	stk, err := NewStack(w.reg, w.lm)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := w.m.NewThread()
	for i := 1; i <= 5; i++ {
		call(t, th, "stack_push", stk, uint64(i))
	}
	for i := 5; i >= 1; i-- {
		top := call(t, th, "stack_pop", stk)[0]
		if v := w.reg.Dev.Load64(top); v != uint64(i) {
			t.Fatalf("pop got %d, want %d", v, i)
		}
	}
	if top := call(t, th, "stack_pop", stk)[0]; top != 0 {
		t.Fatalf("pop from empty = %#x", top)
	}
}

func TestQueueSemantics(t *testing.T) {
	w := build(t, vm.ModeIDO)
	q, err := NewQueue(w.reg, w.lm)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := w.m.NewThread()
	for i := 1; i <= 5; i++ {
		call(t, th, "queue_enq", q, uint64(i*10))
	}
	for i := 1; i <= 5; i++ {
		r := call(t, th, "queue_deq", q)
		if r[0] != 1 || r[1] != uint64(i*10) {
			t.Fatalf("deq = %v, want [1 %d]", r, i*10)
		}
	}
	if r := call(t, th, "queue_deq", q); r[0] != 0 {
		t.Fatalf("deq from empty = %v", r)
	}
}

func TestListSemantics(t *testing.T) {
	w := build(t, vm.ModeIDO)
	lst, err := NewList(w.reg, w.lm)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := w.m.NewThread()
	keys := []uint64{30, 10, 20, 40, 10}
	for i, k := range keys {
		call(t, th, "list_insert", lst, k, uint64(i+100))
	}
	// 10 was updated to 104.
	for _, c := range []struct{ k, ok, v uint64 }{
		{10, 1, 104}, {20, 1, 102}, {30, 1, 100}, {40, 1, 103}, {25, 0, 0},
	} {
		r := call(t, th, "list_get", lst, c.k)
		if r[0] != c.ok || r[1] != c.v {
			t.Fatalf("get(%d) = %v, want [%d %d]", c.k, r, c.ok, c.v)
		}
	}
	// Verify sortedness by walking.
	prev := uint64(0)
	for cur := w.reg.Dev.Load64(lst + 16); cur != 0; cur = w.reg.Dev.Load64(cur + 16) {
		k := w.reg.Dev.Load64(cur)
		if k <= prev {
			t.Fatalf("list not sorted: %d after %d", k, prev)
		}
		prev = k
	}
}

func TestMapSemantics(t *testing.T) {
	w := build(t, vm.ModeIDO)
	mp, err := NewMap(w.reg, w.lm, 4)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := w.m.NewThread()
	for k := uint64(1); k <= 40; k++ {
		call(t, th, "map_put", mp, k, k*3)
	}
	for k := uint64(1); k <= 40; k++ {
		r := call(t, th, "map_get", mp, k)
		if r[0] != 1 || r[1] != k*3 {
			t.Fatalf("get(%d) = %v", k, r)
		}
	}
	if r := call(t, th, "map_get", mp, 999); r[0] != 0 {
		t.Fatalf("get(999) = %v", r)
	}
}

func TestKVSemantics(t *testing.T) {
	w := build(t, vm.ModeIDO)
	mc, err := NewKVTable(w.reg, w.lm, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewKVTable(w.reg, w.lm, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := w.m.NewThread()
	for k := uint64(1); k <= 30; k++ {
		call(t, th, "mc_set", mc, k, k+1000)
		call(t, th, "redis_set", rd, k, k+2000)
	}
	call(t, th, "mc_set", mc, 7, 777)
	call(t, th, "redis_set", rd, 7, 7777)
	if r := call(t, th, "mc_get", mc, 7); r[0] != 1 || r[1] != 777 {
		t.Fatalf("mc_get(7) = %v", r)
	}
	if r := call(t, th, "redis_get", rd, 7); r[0] != 1 || r[1] != 7777 {
		t.Fatalf("redis_get(7) = %v", r)
	}
	if r := call(t, th, "mc_get", mc, 999); r[0] != 0 {
		t.Fatalf("mc_get(999) = %v", r)
	}
}

// checkList verifies list structure and returns the key->value contents.
func checkList(t *testing.T, reg *region.Region, lst uint64) map[uint64]uint64 {
	t.Helper()
	out := map[uint64]uint64{}
	prev := uint64(0)
	for cur := reg.Dev.Load64(lst + 16); cur != 0; cur = reg.Dev.Load64(cur + 16) {
		k := reg.Dev.Load64(cur)
		if k <= prev {
			t.Fatalf("list unsorted: %d after %d", k, prev)
		}
		prev = k
		out[k] = reg.Dev.Load64(cur + 8)
	}
	return out
}

// TestListCrashFuzz inserts keys with random crash injection and checks
// that, post recovery, the list is sorted and contains exactly the
// completed inserts (plus the resumed one).
func TestListCrashFuzz(t *testing.T) {
	keys := []uint64{50, 10, 30, 20, 40}
	setup := func() (*world, uint64, *vm.Thread) {
		w := build(t, vm.ModeIDO)
		lst, err := NewList(w.reg, w.lm)
		if err != nil {
			t.Fatal(err)
		}
		w.reg.SetRoot(1, lst)
		th, _ := w.m.NewThread()
		return w, lst, th
	}
	// Budgets 0..events: every crash point of the inserts, and the clean
	// run.
	pw, plst, pth := setup()
	events := pw.deviceEvents(func() {
		for _, k := range keys {
			call(t, pth, "list_insert", plst, k, k+1)
		}
	})
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		w, lst, th := setup()
		w.m.SetCrashBudget(int64(rng.Intn(int(events) + 1)))
		done := map[uint64]bool{}
		crashed := false
		for _, k := range keys {
			if _, err := th.Call("list_insert", lst, k, k+1); err != nil {
				crashed = true
				break
			}
			done[k] = true
		}
		w.m.SetCrashBudget(-1)
		mode := nvm.CrashMode(rng.Intn(3))
		w2 := w.reopen(t, mode, rng, vm.ModeIDO)
		stats, err := w2.m.Recover()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := checkList(t, w2.reg, w2.reg.Root(1))
		for k := range done {
			if got[k] != k+1 {
				t.Fatalf("trial %d: completed insert %d lost (got %v)", trial, k, got)
			}
		}
		// At most one extra key (the resumed insert).
		if len(got) > len(done)+1 {
			t.Fatalf("trial %d: spurious keys: %v vs %d done", trial, got, len(done))
		}
		if !crashed && len(got) != len(done) {
			t.Fatalf("trial %d: clean run mismatch", trial)
		}
		_ = stats
	}
}

// TestQueueCrashFuzz enqueues with crash injection; after recovery the
// queue must contain a prefix (completed) possibly plus the resumed one,
// in FIFO order.
func TestQueueCrashFuzz(t *testing.T) {
	setup := func() (*world, uint64, *vm.Thread) {
		w := build(t, vm.ModeIDO)
		q, err := NewQueue(w.reg, w.lm)
		if err != nil {
			t.Fatal(err)
		}
		w.reg.SetRoot(1, q)
		th, _ := w.m.NewThread()
		return w, q, th
	}
	// Budgets 0..events: every crash point of the five enqueues, and the
	// clean run.
	pw, pq, pth := setup()
	events := pw.deviceEvents(func() {
		for i := 1; i <= 5; i++ {
			call(t, pth, "queue_enq", pq, uint64(i))
		}
	})
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		w, q, th := setup()
		w.m.SetCrashBudget(int64(rng.Intn(int(events) + 1)))
		enq := 0
		for i := 1; i <= 5; i++ {
			if _, err := th.Call("queue_enq", q, uint64(i)); err != nil {
				break
			}
			enq = i
		}
		w.m.SetCrashBudget(-1)
		w2 := w.reopen(t, nvm.CrashRandom, rng, vm.ModeIDO)
		if _, err := w2.m.Recover(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Drain and verify FIFO 1..k with k >= enq.
		q2 := w2.reg.Root(1)
		th2, _ := w2.m.NewThread()
		want := uint64(1)
		for {
			r := call(t, th2, "queue_deq", q2)
			if r[0] == 0 {
				break
			}
			if r[1] != want {
				t.Fatalf("trial %d: FIFO broken: got %d, want %d", trial, r[1], want)
			}
			want++
		}
		if int(want-1) < enq {
			t.Fatalf("trial %d: completed enqueues lost: %d < %d", trial, want-1, enq)
		}
	}
}

// TestMapConcurrentCrashFuzz runs several VM threads on the hash map,
// crashes them all, recovers, and checks every completed put survived.
func TestMapConcurrentCrashFuzz(t *testing.T) {
	const workers = 4
	setup := func() (*world, uint64, []*vm.Thread) {
		w := build(t, vm.ModeIDO)
		mp, err := NewMap(w.reg, w.lm, 4)
		if err != nil {
			t.Fatal(err)
		}
		w.reg.SetRoot(1, mp)
		ths := make([]*vm.Thread, workers)
		for g := range ths {
			if ths[g], err = w.m.NewThread(); err != nil {
				t.Fatal(err)
			}
		}
		return w, mp, ths
	}
	// The workers' puts issue about events device events in all (run
	// here one worker after another); budgets span from an eighth of
	// them, so some puts complete, past the end.
	pw, pmp, pths := setup()
	events := pw.deviceEvents(func() {
		for g, th := range pths {
			for i := 0; i < 10; i++ {
				k := uint64(g*100 + i + 1)
				call(t, th, "map_put", pmp, k, k*2)
			}
		}
	})
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		w, mp, ths := setup()
		type result struct{ done []uint64 }
		results := make([]result, workers)
		w.m.SetCrashBudget(events/8 + int64(rng.Intn(int(events))))
		doneCh := make(chan int, workers)
		for g, th := range ths {
			go func(g int, th *vm.Thread) {
				defer func() { doneCh <- g }()
				for i := 0; i < 10; i++ {
					k := uint64(g*100 + i + 1)
					if _, err := th.Call("map_put", mp, k, k*2); err != nil {
						return
					}
					results[g].done = append(results[g].done, k)
				}
			}(g, th)
		}
		for g := 0; g < workers; g++ {
			<-doneCh
		}
		w.m.SetCrashBudget(-1)
		w2 := w.reopen(t, nvm.CrashRandom, rng, vm.ModeIDO)
		if _, err := w2.m.Recover(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mp2 := w2.reg.Root(1)
		th2, _ := w2.m.NewThread()
		for g := 0; g < workers; g++ {
			for _, k := range results[g].done {
				r := call(t, th2, "map_get", mp2, k)
				if r[0] != 1 || r[1] != k*2 {
					t.Fatalf("trial %d: completed put %d lost: %v", trial, k, r)
				}
			}
		}
	}
}

// TestRedisDurableCrashFuzz crashes redis_set mid-FASE and verifies the
// durable-region recovery completes or cleanly excludes the update.
func TestRedisDurableCrashFuzz(t *testing.T) {
	setup := func() (*world, uint64, *vm.Thread) {
		w := build(t, vm.ModeIDO)
		rd, err := NewKVTable(w.reg, w.lm, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		w.reg.SetRoot(1, rd)
		th, _ := w.m.NewThread()
		call(t, th, "redis_set", rd, 5, 50)
		return w, rd, th
	}
	// Budgets 0..events: crash points across the update, and the clean
	// run.
	pw, prd, pth := setup()
	events := pw.deviceEvents(func() { call(t, pth, "redis_set", prd, 5, 51) })
	rng := rand.New(rand.NewSource(55))
	for budget := int64(0); budget <= events; budget += 3 {
		w, rd, th := setup()
		w.m.SetCrashBudget(budget)
		_, callErr := th.Call("redis_set", rd, 5, 51)
		w.m.SetCrashBudget(-1)
		w2 := w.reopen(t, nvm.CrashRandom, rng, vm.ModeIDO)
		stats, err := w2.m.Recover()
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		th2, _ := w2.m.NewThread()
		r := call(t, th2, "redis_get", w2.reg.Root(1), 5)
		if r[0] != 1 || (r[1] != 50 && r[1] != 51) {
			t.Fatalf("budget %d: get = %v", budget, r)
		}
		if (callErr == nil || stats.Resumed > 0) && r[1] != 51 {
			t.Fatalf("budget %d: update lost after completion/resumption", budget)
		}
	}
}

// TestFig8StatisticsShape validates the paper's Fig. 8 qualitative claims
// on the VM statistics: microbenchmark regions mostly have <= 1 store,
// and nearly all regions log fewer than 5 registers.
func TestFig8StatisticsShape(t *testing.T) {
	w := build(t, vm.ModeIDO)
	stk, _ := NewStack(w.reg, w.lm)
	lst, _ := NewList(w.reg, w.lm)
	th, _ := w.m.NewThread()
	for i := 1; i <= 200; i++ {
		call(t, th, "stack_push", stk, uint64(i))
		call(t, th, "list_insert", lst, uint64(i*7%97+1), uint64(i))
		if i%2 == 0 {
			call(t, th, "stack_pop", stk)
			call(t, th, "list_get", lst, uint64(i*5%97+1))
		}
	}
	s := w.m.Stats()
	if s.Regions == 0 {
		t.Fatal("no regions recorded")
	}
	zeroOrOne := s.StoresPerRegion[0] + s.StoresPerRegion[1]
	var all uint64
	for _, c := range s.StoresPerRegion {
		all += c
	}
	if zeroOrOne*10 < all*7 {
		t.Fatalf("microbenchmark regions with 0-1 stores = %d of %d (<70%%)", zeroOrOne, all)
	}
	var le4, total uint64
	for i, c := range s.OutputsPerRegion {
		total += c
		if i < 5 {
			le4 += c
		}
	}
	if le4*100 < total*90 {
		t.Fatalf("regions logging <5 registers = %d of %d (<90%%)", le4, total)
	}
}

// TestMCSetCrashFuzz validates the memcached kernel under crash
// injection: after recovery the table is well formed and every completed
// set is visible.
func TestMCSetCrashFuzz(t *testing.T) {
	setup := func() (*world, uint64, *vm.Thread) {
		w := build(t, vm.ModeIDO)
		tb, err := NewKVTable(w.reg, w.lm, 8, true)
		if err != nil {
			t.Fatal(err)
		}
		w.reg.SetRoot(1, tb)
		th, _ := w.m.NewThread()
		return w, tb, th
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		keys := make([]uint64, 15)
		for i := range keys {
			keys[i] = uint64(rng.Intn(8) + 1)
		}
		// Budgets 0..events: every crash point of this trial's sets, and
		// the clean run.
		pw, ptb, pth := setup()
		events := pw.deviceEvents(func() {
			for i, k := range keys {
				call(t, pth, "mc_set", ptb, k, uint64(i+100))
			}
		})
		w, tb, th := setup()
		w.m.SetCrashBudget(int64(rng.Intn(int(events) + 1)))
		done := map[uint64]uint64{}
		for i, k := range keys {
			v := uint64(i + 100)
			if _, err := th.Call("mc_set", tb, k, v); err != nil {
				break
			}
			done[k] = v
		}
		w.m.SetCrashBudget(-1)
		w2 := w.reopen(t, nvm.CrashMode(rng.Intn(3)), rng, vm.ModeIDO)
		if _, err := w2.m.Recover(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tb2 := w2.reg.Root(1)
		th2, _ := w2.m.NewThread()
		for k, v := range done {
			r := call(t, th2, "mc_get", tb2, k)
			if r[0] != 1 || (r[1] != v && done[k] == v) {
				// The in-flight set may have updated k after `done`
				// recorded it; accept any later value for that one key,
				// but a completed set must never be lost entirely.
				if r[0] != 1 {
					t.Fatalf("trial %d: completed set(%d) lost", trial, k)
				}
			}
		}
	}
}

// TestRedisSetCrashFuzzJUSTDO exercises the VM's JUSTDO recovery on the
// redis kernel under the persistent-cache crash model it assumes.
func TestRedisSetCrashFuzzJUSTDO(t *testing.T) {
	setup := func() (*world, uint64, *vm.Thread) {
		w := build(t, vm.ModeJUSTDO)
		tb, err := NewKVTable(w.reg, w.lm, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		w.reg.SetRoot(1, tb)
		th, _ := w.m.NewThread()
		return w, tb, th
	}
	// Budgets 0..events: every crash point of the twelve sets, and the
	// clean run.
	pw, ptb, pth := setup()
	events := pw.deviceEvents(func() {
		for i := 0; i < 12; i++ {
			k := uint64(i + 1)
			call(t, pth, "redis_set", ptb, k, k*5)
		}
	})
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		w, tb, th := setup()
		w.m.SetCrashBudget(int64(rng.Intn(int(events) + 1)))
		count := 0
		for i := 0; i < 12; i++ {
			k := uint64(i + 1)
			if _, err := th.Call("redis_set", tb, k, k*5); err != nil {
				break
			}
			count = i + 1
		}
		w.m.SetCrashBudget(-1)
		w2 := w.reopen(t, nvm.CrashPersistAll, nil, vm.ModeJUSTDO)
		if _, err := w2.m.Recover(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tb2 := w2.reg.Root(1)
		th2, _ := w2.m.NewThread()
		for k := uint64(1); k <= uint64(count); k++ {
			r := call(t, th2, "redis_get", tb2, k)
			if r[0] != 1 || r[1] != k*5 {
				t.Fatalf("trial %d: completed set(%d) = %v", trial, k, r)
			}
		}
	}
}

// TestRegionFormationGolden pins the exact region counts the compiler
// produces for the benchmark kernels, guarding against silent regressions
// in the cutting algorithm (numbers change only when the algorithm or
// the kernels deliberately change).
func TestRegionFormationGolden(t *testing.T) {
	c, err := Compile(compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"stack_push":  3, // post-acquire, antidep publish, pre-release
		"stack_pop":   3, // ditto (the empty path shares the release cut)
		"queue_enq":   4, // post-acquire is split across both br targets
		"queue_deq":   4,
		"list_insert": 11, // per-hop check/advance + four exit paths
		"list_get":    9,
		"map_put":     11,
		"map_get":     9,
		"mc_set":      5,
		"mc_get":      3,
		"redis_set":   5,
		"redis_get":   0, // no FASE: reads run uninstrumented
	}
	for fn, wantN := range want {
		cf := c.Funcs[fn]
		if cf == nil {
			t.Fatalf("missing %s", fn)
		}
		if got := len(cf.Regions); got != wantN {
			t.Errorf("%s: %d regions, want %d\n%s", fn, got, wantN, cf.F)
		}
	}
}
