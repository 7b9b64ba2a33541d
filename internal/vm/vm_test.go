package vm

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/idem"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// Test kernels. Structure layouts:
//
//	counter/stack header: [0]=lock holder, [8]=value / top pointer
//	stack node:           [0]=value, [8]=next
const kernels = `
func inc 1 {
entry:
  lk = load r0 0
  lock lk
  v = load r0 8
  w = add v 1
  store r0 8 w
  unlock lk
  ret w
}

func push 2 {
entry:
  lk = load r0 0
  lock lk
  top = load r0 8
  node = alloc 16
  store node 0 r1
  store node 8 top
  store r0 8 node
  unlock lk
  ret
}

func pop 1 {
entry:
  lk = load r0 0
  lock lk
  top = load r0 8
  c = ne top 0
  br c take out
take:
  nxt = load top 8
  store r0 8 nxt
  jmp out
out:
  unlock lk
  ret top
}

func sum 1 {
entry:
  lk = load r0 0
  lock lk
  cur = load r0 8
  acc = const 0
  jmp loop
loop:
  c = ne cur 0
  br c body done
body:
  v = load cur 0
  acc = add acc v
  cur = load cur 8
  jmp loop
done:
  store r0 16 acc
  unlock lk
  ret acc
}
`

type world struct {
	reg  *region.Region
	lm   *locks.Manager
	m    *Machine
	prog *compile.Compiled
	stk  uint64 // counter/stack header address
}

func build(t *testing.T, mode Mode, idemCfg compile.Config) *world {
	t.Helper()
	prog, err := ir.Parse(kernels)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile.Program(prog, idemCfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<22, nvm.Config{})
	lm := locks.NewManager(reg)
	m := New(reg, lm, c, mode)
	hdr, err := reg.Alloc.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lm.Create()
	if err != nil {
		t.Fatal(err)
	}
	reg.Dev.Store64(hdr, l.Holder())
	reg.Dev.Store64(hdr+8, 0)
	reg.Dev.PersistRange(hdr, 24)
	reg.Dev.Fence()
	reg.SetRoot(1, hdr)
	return &world{reg: reg, lm: lm, m: m, prog: c, stk: hdr}
}

// deviceEvents counts the device events fn issues on dev: crash budgets
// 0..n-1 fire inside fn, n runs it to the end.
func deviceEvents(dev *nvm.Device, fn func()) int64 {
	const probe = int64(1) << 40
	dev.ArmLocalCrash(probe)
	defer dev.ArmLocalCrash(-1)
	fn()
	return probe - dev.LocalCrashBudgetRemaining()
}

// reopen simulates process death: crash the device, reattach, rebuild the
// machine over the surviving persistent bytes.
func (w *world) reopen(t *testing.T, mode nvm.CrashMode, rng *rand.Rand, vmMode Mode) *world {
	t.Helper()
	reg2, err := w.reg.Crash(mode, rng)
	if err != nil {
		t.Fatal(err)
	}
	lm2 := locks.NewManager(reg2)
	m2 := New(reg2, lm2, w.prog, vmMode)
	return &world{reg: reg2, lm: lm2, m: m2, prog: w.prog, stk: reg2.Root(1)}
}

func TestIncNoCrashAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeOrigin, ModeIDO, ModeJUSTDO} {
		w := build(t, mode, compile.Config{})
		th, err := w.m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			rets, err := th.Call("inc", w.stk)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if rets[0] != uint64(i+1) {
				t.Fatalf("%v: inc returned %d, want %d", mode, rets[0], i+1)
			}
		}
		if got := w.reg.Dev.Load64(w.stk + 8); got != 10 {
			t.Fatalf("%v: counter = %d", mode, got)
		}
	}
}

// TestIDOIncCrashEverywhere injects a crash at every possible event
// offset and verifies that recovery restores exact atomicity under all
// three crash adversaries.
func TestIDOIncCrashEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cm := range []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll} {
		for budget := int64(0); ; budget++ {
			w := build(t, ModeIDO, compile.Config{})
			th, _ := w.m.NewThread()
			w.m.SetCrashBudget(budget)
			_, err := th.Call("inc", w.stk)
			w.m.SetCrashBudget(-1)
			if err == nil {
				// Budget exceeded the op length: done with this mode.
				if got := w.reg.Dev.Load64(w.stk + 8); got != 1 {
					t.Fatalf("clean run counter = %d", got)
				}
				break
			}
			if err != ErrCrashed {
				t.Fatal(err)
			}
			w2 := w.reopen(t, cm, rng, ModeIDO)
			stats, err := w2.m.Recover()
			if err != nil {
				t.Fatalf("mode %v budget %d: %v", cm, budget, err)
			}
			got := w2.reg.Dev.Load64(w2.stk + 8)
			if got != 0 && got != 1 {
				t.Fatalf("mode %v budget %d: counter = %d (atomicity broken)", cm, budget, got)
			}
			if stats.Resumed > 0 && got != 1 {
				t.Fatalf("mode %v budget %d: resumed but counter = %d", cm, budget, got)
			}
			// The lock must be free after recovery.
			if !w2.lm.ByHolder(w2.reg.Dev.Load64(w2.stk)).TryAcquire() {
				t.Fatalf("budget %d: lock still held after recovery", budget)
			}
		}
	}
}

// TestJUSTDOIncCrashEverywhere does the same under the persistent-cache
// model JUSTDO was designed for.
func TestJUSTDOIncCrashEverywhere(t *testing.T) {
	for budget := int64(0); ; budget++ {
		w := build(t, ModeJUSTDO, compile.Config{})
		th, _ := w.m.NewThread()
		w.m.SetCrashBudget(budget)
		_, err := th.Call("inc", w.stk)
		if err == nil {
			break
		}
		w2 := w.reopen(t, nvm.CrashPersistAll, nil, ModeJUSTDO)
		if _, err := w2.m.Recover(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		got := w2.reg.Dev.Load64(w2.stk + 8)
		if got != 0 && got != 1 {
			t.Fatalf("budget %d: counter = %d", budget, got)
		}
	}
}

// checkStack walks the stack and verifies it is a clean suffix of the
// push sequence: values k, k-1, ..., 1 for some k <= pushed.
func checkStack(t *testing.T, w *world, pushed int) int {
	t.Helper()
	top := w.reg.Dev.Load64(w.stk + 8)
	if top == 0 {
		return 0
	}
	k := int(w.reg.Dev.Load64(top))
	if k > pushed {
		t.Fatalf("top value %d exceeds pushes %d", k, pushed)
	}
	want := k
	for cur := top; cur != 0; cur = w.reg.Dev.Load64(cur + 8) {
		if got := int(w.reg.Dev.Load64(cur)); got != want {
			t.Fatalf("stack corrupt: node value %d, want %d", got, want)
		}
		want--
	}
	if want != 0 {
		t.Fatalf("stack bottom reached at %d, want 0", want)
	}
	return k
}

// TestIDOStackCrashFuzz pushes values 1..N with a random crash and
// verifies the stack is a consistent prefix after recovery, repeatedly.
func TestIDOStackCrashFuzz(t *testing.T) {
	const N = 6
	// Budgets 0..events: every crash point of the N pushes, and the
	// clean run.
	p := build(t, ModeIDO, compile.Config{})
	pth, _ := p.m.NewThread()
	events := deviceEvents(p.reg.Dev, func() {
		for i := 1; i <= N; i++ {
			if _, err := pth.Call("push", p.stk, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		w := build(t, ModeIDO, compile.Config{})
		th, _ := w.m.NewThread()
		budget := int64(rng.Intn(int(events) + 1))
		w.m.SetCrashBudget(budget)
		pushed := 0
		crashed := false
		for i := 1; i <= N; i++ {
			if _, err := th.Call("push", w.stk, uint64(i)); err != nil {
				crashed = true
				break
			}
			pushed = i
		}
		w.m.SetCrashBudget(-1)
		mode := nvm.CrashMode(rng.Intn(3))
		w2 := w.reopen(t, mode, rng, ModeIDO)
		stats, err := w2.m.Recover()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		depth := checkStack(t, w2, pushed+1)
		if !crashed && depth != N {
			t.Fatalf("trial %d: clean run depth %d", trial, depth)
		}
		if crashed && depth < pushed {
			t.Fatalf("trial %d: completed pushes lost: depth %d < %d", trial, depth, pushed)
		}
		if stats.Resumed > 0 && depth != pushed+1 {
			t.Fatalf("trial %d: resumed push not completed: depth %d, pushed %d", trial, depth, pushed)
		}
	}
}

// TestIDOPopCrashFuzz pops from a prepared stack with crash injection.
func TestIDOPopCrashFuzz(t *testing.T) {
	const N = 5
	pushed := func() (*world, *Thread) {
		w := build(t, ModeIDO, compile.Config{})
		th, _ := w.m.NewThread()
		for i := 1; i <= N; i++ {
			if _, err := th.Call("push", w.stk, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return w, th
	}
	// Budgets 0..events: every crash point of the three pops, and the
	// clean run.
	p, pth := pushed()
	events := deviceEvents(p.reg.Dev, func() {
		for i := 0; i < 3; i++ {
			if _, err := pth.Call("pop", p.stk); err != nil {
				t.Fatal(err)
			}
		}
	})
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		w, th := pushed()
		w.m.SetCrashBudget(int64(rng.Intn(int(events) + 1)))
		pops := 0
		for i := 0; i < 3; i++ {
			if _, err := th.Call("pop", w.stk); err != nil {
				break
			}
			pops++
		}
		w.m.SetCrashBudget(-1)
		w2 := w.reopen(t, nvm.CrashRandom, rng, ModeIDO)
		if _, err := w2.m.Recover(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		depth := checkStack(t, w2, N)
		if depth < N-pops-1 || depth > N-pops {
			t.Fatalf("trial %d: depth %d after %d(+1?) pops from %d", trial, depth, pops, N)
		}
	}
}

// TestIDOLoopKernel exercises the loop-header cut path (sum) including a
// crash inside the loop.
func TestIDOLoopKernel(t *testing.T) {
	w := build(t, ModeIDO, compile.Config{})
	th, _ := w.m.NewThread()
	for i := 1; i <= 8; i++ {
		if _, err := th.Call("push", w.stk, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var rets []uint64
	var err error
	events := deviceEvents(w.reg.Dev, func() { rets, err = th.Call("sum", w.stk) })
	if err != nil {
		t.Fatal(err)
	}
	if rets[0] != 36 {
		t.Fatalf("sum = %d, want 36", rets[0])
	}
	// Now crash mid-sum at many points, up to its last device event; the
	// recovered sum must be stored.
	rng := rand.New(rand.NewSource(3))
	for budget := int64(5); budget <= events; budget += 7 {
		w2 := build(t, ModeIDO, compile.Config{})
		th2, _ := w2.m.NewThread()
		for i := 1; i <= 8; i++ {
			if _, err := th2.Call("push", w2.stk, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		w2.m.SetCrashBudget(budget)
		_, err := th2.Call("sum", w2.stk)
		w2.m.SetCrashBudget(-1)
		w3 := w2.reopen(t, nvm.CrashRandom, rng, ModeIDO)
		stats, rerr := w3.m.Recover()
		if rerr != nil {
			t.Fatalf("budget %d: %v", budget, rerr)
		}
		if err != nil && stats.Resumed > 0 {
			if got := w3.reg.Dev.Load64(w3.stk + 16); got != 36 {
				t.Fatalf("budget %d: recovered sum = %d, want 36", budget, got)
			}
		}
	}
}

func TestVMStatsHistograms(t *testing.T) {
	w := build(t, ModeIDO, compile.Config{})
	th, _ := w.m.NewThread()
	for i := 1; i <= 20; i++ {
		if _, err := th.Call("push", w.stk, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := w.m.Stats()
	if s.FASEs != 20 {
		t.Fatalf("FASEs = %d", s.FASEs)
	}
	if s.Regions == 0 || s.Stores != 60 {
		t.Fatalf("regions=%d stores=%d", s.Regions, s.Stores)
	}
	var hist uint64
	for _, c := range s.StoresPerRegion {
		hist += c
	}
	if hist != s.Regions {
		t.Fatalf("histogram mass %d != regions %d", hist, s.Regions)
	}
}

func TestPerStoreAblationProducesMoreRegions(t *testing.T) {
	run := func(cfg compile.Config) uint64 {
		w := build(t, ModeIDO, cfg)
		th, _ := w.m.NewThread()
		for i := 1; i <= 10; i++ {
			if _, err := th.Call("push", w.stk, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return w.m.Stats().LoggedEntries
	}
	normal := run(compile.Config{})
	perStore := run(compile.Config{Idem: idem.Config{MaxStoresPerRegion: 1}})
	if perStore <= normal {
		t.Fatalf("per-store ablation logged %d <= %d", perStore, normal)
	}
}

func TestJUSTDOCostsMoreFencesThanIDO(t *testing.T) {
	fences := func(mode Mode, fn string) uint64 {
		w := build(t, mode, compile.Config{})
		th, _ := w.m.NewThread()
		w.reg.Dev.ResetStats()
		for i := 1; i <= 50; i++ {
			args := []uint64{w.stk}
			if fn == "push" {
				args = append(args, uint64(i))
			}
			if _, err := th.Call(fn, args...); err != nil {
				t.Fatal(err)
			}
		}
		return w.reg.Dev.Stats().Fences
	}
	ido := fences(ModeIDO, "push")
	jd := fences(ModeJUSTDO, "push")
	if jd <= ido {
		t.Fatalf("JUSTDO fences %d <= iDO fences %d", jd, ido)
	}
	// inc allocates nothing, so origin's fence count isolates the runtime:
	// it must be zero (the push variant pays only allocator-metadata
	// fences, which every mode pays equally).
	if origin := fences(ModeOrigin, "inc"); origin != 0 {
		t.Fatalf("origin issued %d fences", origin)
	}
}

func TestUnknownFunction(t *testing.T) {
	w := build(t, ModeIDO, compile.Config{})
	th, _ := w.m.NewThread()
	if _, err := th.Call("nope"); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := th.Call("inc"); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

// TestSAllocAndTrace exercises the NVM stack allocator and the OpPrint
// trace channel, including crash recovery across a salloc'd frame.
func TestSAllocAndTrace(t *testing.T) {
	src := `
func scratch 1 {
entry:
  lk = load r0 0
  lock lk
  buf = salloc 16
  store buf 0 7
  store buf 8 8
  a = load buf 0
  b = load buf 8
  s = add a b
  store r0 8 s
  print s
  unlock lk
  ret s
}
`
	prog, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile.Program(prog, compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<20, nvm.Config{})
	lm := locks.NewManager(reg)
	m := New(reg, lm, c, ModeIDO)
	hdr, _ := reg.Alloc.Alloc(16)
	l, _ := lm.Create()
	reg.Dev.Store64(hdr, l.Holder())
	reg.Dev.PersistRange(hdr, 16)
	reg.Dev.Fence()
	th, _ := m.NewThread()
	rets, err := th.Call("scratch", hdr)
	if err != nil {
		t.Fatal(err)
	}
	if rets[0] != 15 {
		t.Fatalf("ret = %d", rets[0])
	}
	if tr := m.Trace(); len(tr) != 1 || tr[0] != 15 {
		t.Fatalf("trace = %v", tr)
	}
	// Repeated calls reset the frame: no stack creep.
	for i := 0; i < 300; i++ {
		if _, err := th.Call("scratch", hdr); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestSAllocCrashRecovery crashes inside a FASE that uses stack slots and
// verifies resumption completes it.
func TestSAllocCrashRecovery(t *testing.T) {
	src := `
func scratch 1 {
entry:
  lk = load r0 0
  lock lk
  buf = salloc 16
  store buf 0 41
  v = load buf 0
  w = add v 1
  store r0 8 w
  unlock lk
  ret
}
`
	prog, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile.Program(prog, compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	setup := func() (*region.Region, *Thread, uint64) {
		reg := region.Create(1<<20, nvm.Config{})
		lm := locks.NewManager(reg)
		m := New(reg, lm, c, ModeIDO)
		hdr, _ := reg.Alloc.Alloc(16)
		l, _ := lm.Create()
		reg.Dev.Store64(hdr, l.Holder())
		reg.Dev.PersistRange(hdr, 16)
		reg.Dev.Fence()
		reg.SetRoot(1, hdr)
		th, _ := m.NewThread()
		return reg, th, hdr
	}
	// Budgets 0..events: every crash point of the call, and the clean run.
	preg, pth, phdr := setup()
	events := deviceEvents(preg.Dev, func() {
		if _, err := pth.Call("scratch", phdr); err != nil {
			t.Fatal(err)
		}
	})
	rng := rand.New(rand.NewSource(4))
	for budget := int64(0); budget <= events; budget++ {
		reg, th, hdr := setup()
		th.m.SetCrashBudget(budget)
		_, callErr := th.Call("scratch", hdr)
		th.m.SetCrashBudget(-1)
		reg2, err := reg.Crash(nvm.CrashRandom, rng)
		if err != nil {
			t.Fatal(err)
		}
		m2 := New(reg2, locks.NewManager(reg2), c, ModeIDO)
		st, err := m2.Recover()
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		got := reg2.Dev.Load64(reg2.Root(1) + 8)
		if got != 0 && got != 42 {
			t.Fatalf("budget %d: cell = %d", budget, got)
		}
		if (callErr == nil || st.Resumed > 0) && got != 42 {
			t.Fatalf("budget %d: FASE completed/resumed but cell = %d", budget, got)
		}
	}
}

func TestVMErrorPaths(t *testing.T) {
	prog, _ := ir.Parse("func f 0 {\nentry:\n  ret\n}\n")
	c, err := compile.Program(prog, compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<18, nvm.Config{})
	m := New(reg, locks.NewManager(reg), c, ModeOrigin)
	th, _ := m.NewThread()
	if _, err := th.Call("f", 1, 2); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := th.Call("ghost"); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := th.Call("f"); err != nil {
		t.Fatal(err)
	}
}
