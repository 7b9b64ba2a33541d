package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Event-count equivalence: the threaded-code engine and the legacy
// tree-walker must be indistinguishable at the device boundary. The
// observation below captures everything the paper's figures are computed
// from — return values, trace output, runtime statistics, the device's
// event counters (every crash-injection point is a device event), and a
// prefix of the persistent image itself.
type observed struct {
	rets   [][]uint64
	trace  []uint64
	rstats persist.RuntimeStats
	dstats nvm.Stats
	mem    []uint64
}

func observe(m *Machine, reg *region.Region, rets [][]uint64) observed {
	o := observed{
		rets:   rets,
		trace:  m.Trace(),
		rstats: m.Stats(),
		dstats: reg.Dev.Stats(),
	}
	o.mem = make([]uint64, 1<<15)
	reg.Dev.ReadWords(0, o.mem)
	return o
}

func diffObserved(t *testing.T, label string, dec, leg observed) {
	t.Helper()
	if !reflect.DeepEqual(dec.rets, leg.rets) {
		t.Errorf("%s: return values diverge\ndecoded: %v\nlegacy:  %v", label, dec.rets, leg.rets)
	}
	if !reflect.DeepEqual(dec.trace, leg.trace) {
		t.Errorf("%s: traces diverge\ndecoded: %v\nlegacy:  %v", label, dec.trace, leg.trace)
	}
	if !reflect.DeepEqual(dec.rstats, leg.rstats) {
		t.Errorf("%s: RuntimeStats diverge\ndecoded: %+v\nlegacy:  %+v", label, dec.rstats, leg.rstats)
	}
	if dec.dstats != leg.dstats {
		t.Errorf("%s: device event counts diverge\ndecoded: %+v\nlegacy:  %+v", label, dec.dstats, leg.dstats)
	}
	if !reflect.DeepEqual(dec.mem, leg.mem) {
		for i := range dec.mem {
			if dec.mem[i] != leg.mem[i] {
				t.Errorf("%s: persistent image diverges at word %d (byte %#x): decoded %#x, legacy %#x",
					label, i, i*8, dec.mem[i], leg.mem[i])
				break
			}
		}
	}
}

// runIrprogConformance executes a fixed deterministic workload over all
// six irprog data-structure kernel families on one engine.
func runIrprogConformance(t *testing.T, mode Mode, legacy bool) observed {
	t.Helper()
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<24, nvm.Config{})
	lm := locks.NewManager(reg)
	m := New(reg, lm, prog, mode)
	m.useLegacy(legacy)

	stk, err := irprog.NewStack(reg, lm)
	if err != nil {
		t.Fatal(err)
	}
	q, err := irprog.NewQueue(reg, lm)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := irprog.NewList(reg, lm)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := irprog.NewMap(reg, lm, 4)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := irprog.NewKVTable(reg, lm, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := irprog.NewKVTable(reg, lm, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread()
	if err != nil {
		t.Fatal(err)
	}

	var rets [][]uint64
	call := func(fn string, args ...uint64) {
		t.Helper()
		r, err := th.Call(fn, args...)
		if err != nil {
			t.Fatalf("%s(%v): %v", fn, args, err)
		}
		// Call's result aliases the thread's scratch buffer; copy to keep.
		rets = append(rets, append([]uint64(nil), r...))
	}
	for i := uint64(0); i < 24; i++ {
		call("stack_push", stk, i*3+1)
		if i%3 == 2 {
			call("stack_pop", stk)
		}
		call("queue_enq", q, i*7+1)
		if i%4 == 3 {
			call("queue_deq", q)
		}
		call("list_insert", lst, (i*13)%32, i+100)
		call("map_put", mp, (i*11)%64, i+200)
		call("mc_set", mc, (i*5)%48, i+300)
		call("redis_set", rd, (i*9)%48, i+400)
	}
	for k := uint64(0); k < 32; k++ {
		call("list_get", lst, k)
		call("map_get", mp, k*2)
		call("mc_get", mc, k)
		call("redis_get", rd, k)
	}
	return observe(m, reg, rets)
}

func TestEquivIrprogConformance(t *testing.T) {
	for _, mode := range []Mode{ModeOrigin, ModeIDO, ModeJUSTDO} {
		dec := runIrprogConformance(t, mode, false)
		leg := runIrprogConformance(t, mode, true)
		diffObserved(t, "irprog/"+mode.String(), dec, leg)
	}
}

// A trace-heavy kernel: prints inside and outside the FASE, a loop, and
// a tracked store, so trace ordering is checked against FASE protocol
// events under every mode.
const equivTraceSrc = `
func chat 2 {
entry:
  lk = load r0 0
  lock lk
  i = const 0
  jmp loop
loop:
  v = load r0 8
  w = add v i
  store r0 8 w
  print w
  i = add i 1
  c = lt i r1
  br c loop done
done:
  unlock lk
  print i
  ret w
}
`

func runTraceConformance(t *testing.T, mode Mode, legacy bool) observed {
	t.Helper()
	prog, err := ir.Parse(equivTraceSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile.Program(prog, compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<22, nvm.Config{})
	lm := locks.NewManager(reg)
	m := New(reg, lm, c, mode)
	m.useLegacy(legacy)
	hdr, err := reg.Alloc.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lm.Create()
	if err != nil {
		t.Fatal(err)
	}
	reg.Dev.Store64(hdr, l.Holder())
	reg.Dev.PersistRange(hdr, 16)
	reg.Dev.Fence()
	th, err := m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	var rets [][]uint64
	for i := uint64(1); i <= 8; i++ {
		r, err := th.Call("chat", hdr, i)
		if err != nil {
			t.Fatal(err)
		}
		rets = append(rets, append([]uint64(nil), r...))
	}
	return observe(m, reg, rets)
}

func TestEquivTraceConformance(t *testing.T) {
	for _, mode := range []Mode{ModeOrigin, ModeIDO, ModeJUSTDO} {
		dec := runTraceConformance(t, mode, false)
		leg := runTraceConformance(t, mode, true)
		diffObserved(t, "trace/"+mode.String(), dec, leg)
	}
}

// TestEquivCrashRecoverSweep proves crash-injection points line up: for
// every budget the two engines must crash in the same call, leave the
// device with identical event counts, and recover to the same counter
// value. Crash modes are the deterministic ones (CrashDiscard for iDO,
// CrashPersistAll for JUSTDO — its fidelity model) so the comparison is
// exact.
func TestEquivCrashRecoverSweep(t *testing.T) {
	const calls = 4
	for _, tc := range []struct {
		mode Mode
		cm   nvm.CrashMode
	}{
		{ModeIDO, nvm.CrashDiscard},
		{ModeJUSTDO, nvm.CrashPersistAll},
	} {
		run := func(legacy bool, budget int64) (crashedAt int, atCrash nvm.Stats, final uint64) {
			w := build(t, tc.mode, compile.Config{})
			w.m.useLegacy(legacy)
			th, err := w.m.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			w.m.SetCrashBudget(budget)
			crashedAt = -1
			for i := 0; i < calls; i++ {
				_, err := th.Call("inc", w.stk)
				if err == ErrCrashed {
					crashedAt = i
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			atCrash = w.reg.Dev.Stats()
			w2 := w.reopen(t, tc.cm, rand.New(rand.NewSource(1)), tc.mode)
			w2.m.useLegacy(legacy)
			if _, err := w2.m.Recover(); err != nil {
				t.Fatalf("mode %v budget %d: recover: %v", tc.mode, budget, err)
			}
			return crashedAt, atCrash, w2.reg.Dev.Load64(w2.stk + 8)
		}
		// Budgets 0..events-1 crash inside the calls; events runs them
		// to the end.
		w := build(t, tc.mode, compile.Config{})
		th, err := w.m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		events := deviceEvents(w.reg.Dev, func() {
			for i := 0; i < calls; i++ {
				if _, err := th.Call("inc", w.stk); err != nil {
					t.Fatal(err)
				}
			}
		})
		sawCrash, sawClean := false, false
		for b := int64(0); b <= events; b++ {
			c1, s1, f1 := run(false, b)
			c2, s2, f2 := run(true, b)
			if c1 != c2 {
				t.Fatalf("mode %v budget %d: decoded crashed in call %d, legacy in %d", tc.mode, b, c1, c2)
			}
			if s1 != s2 {
				t.Fatalf("mode %v budget %d: device stats at crash diverge\ndecoded: %+v\nlegacy:  %+v", tc.mode, b, s1, s2)
			}
			if f1 != f2 {
				t.Fatalf("mode %v budget %d: recovered counter diverges: decoded %d, legacy %d", tc.mode, b, f1, f2)
			}
			if c1 >= 0 {
				sawCrash = true
			} else {
				sawClean = true
			}
		}
		if !sawCrash || !sawClean {
			t.Fatalf("mode %v: sweep did not cover both crashing and clean runs", tc.mode)
		}
	}
}
