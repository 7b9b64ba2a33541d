package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// The differential fuzzer generates random deterministic FASE programs,
// compiles them through the full pipeline, and checks that
//
//  1. executing under ModeIDO produces exactly the persistent state that
//     the uninstrumented ModeOrigin execution produces (instrumentation
//     must be semantics-preserving), and
//  2. crashing a ModeIDO execution at a random point and recovering
//     yields the reference state after either k or k+1 complete calls
//     (FASE atomicity).
//
// Programs operate on a table: word 0 holds the lock holder, words
// 1..nSlots are data slots.

const fuzzSlots = 12

// genProgram emits a random single-FASE function over the table in r0.
// All control flow and arithmetic is deterministic, so repeated calls
// have identical effects given identical starting states.
func genProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("func f 1 {\nentry:\n")
	b.WriteString("  lk = load r0 0\n")
	b.WriteString("  lock lk\n")

	vars := []string{}
	newVar := func() string {
		v := fmt.Sprintf("v%d", len(vars))
		vars = append(vars, v)
		return v
	}
	anyVar := func() string {
		if len(vars) == 0 || rng.Intn(4) == 0 {
			return fmt.Sprintf("%d", rng.Intn(50))
		}
		return vars[rng.Intn(len(vars))]
	}
	slotOff := func() int { return 8 * (1 + rng.Intn(fuzzSlots)) }

	emitStmt := func() {
		switch rng.Intn(4) {
		case 0: // load a slot
			fmt.Fprintf(&b, "  %s = load r0 %d\n", newVar(), slotOff())
		case 1: // store a slot
			fmt.Fprintf(&b, "  store r0 %d %s\n", slotOff(), anyVar())
		case 2: // arithmetic (operands chosen before the new def exists)
			op := []string{"add", "sub", "mul", "xor", "and", "or"}[rng.Intn(6)]
			a, c := anyVar(), anyVar()
			fmt.Fprintf(&b, "  %s = %s %s %s\n", newVar(), op, a, c)
		case 3: // read-modify-write (a guaranteed antidependence)
			off := slotOff()
			v := newVar()
			fmt.Fprintf(&b, "  %s = load r0 %d\n", v, off)
			w := newVar()
			fmt.Fprintf(&b, "  %s = add %s %d\n", w, v, 1+rng.Intn(9))
			fmt.Fprintf(&b, "  store r0 %d %s\n", off, w)
		}
	}

	nStmt := 4 + rng.Intn(10)
	for i := 0; i < nStmt; i++ {
		emitStmt()
	}

	// Optionally a deterministic branch on a slot value: both arms do
	// slot work, then control rejoins. Exercises join cuts and
	// region-per-path recovery.
	if rng.Intn(2) == 0 {
		c := newVar()
		fmt.Fprintf(&b, "  %s = load r0 %d\n", c, slotOff())
		g := newVar()
		fmt.Fprintf(&b, "  %s = and %s 1\n", g, c)
		fmt.Fprintf(&b, "  br %s then else\nthen:\n", g)
		fmt.Fprintf(&b, "  store r0 %d %s\n", slotOff(), anyVar())
		fmt.Fprintf(&b, "  jmp merge\nelse:\n")
		to := slotOff()
		tv := newVar()
		fmt.Fprintf(&b, "  %s = load r0 %d\n", tv, to)
		w := newVar()
		fmt.Fprintf(&b, "  %s = add %s 3\n", w, tv)
		fmt.Fprintf(&b, "  store r0 %d %s\n", to, w)
		fmt.Fprintf(&b, "  jmp merge\nmerge:\n")
		vars = vars[:0] // defs above are not defined on all paths
	}

	// Optionally a bounded loop accumulating over slots.
	if rng.Intn(2) == 0 {
		iters := 2 + rng.Intn(3)
		off := slotOff()
		fmt.Fprintf(&b, "  i = const 0\n  acc = const 0\n  jmp loop\nloop:\n")
		fmt.Fprintf(&b, "  x = load r0 %d\n", slotOff())
		fmt.Fprintf(&b, "  acc = add acc x\n")
		fmt.Fprintf(&b, "  i = add i 1\n")
		fmt.Fprintf(&b, "  c = lt i %d\n", iters)
		fmt.Fprintf(&b, "  br c loop after\nafter:\n")
		fmt.Fprintf(&b, "  store r0 %d acc\n", off)
	}

	b.WriteString("  unlock lk\n  ret\n}\n")
	return b.String()
}

// fuzzWorld builds a machine with a table whose slots hold seeded values.
func fuzzWorld(t *testing.T, prog *compile.Compiled, mode Mode, seed int64) (*Machine, *region.Region, uint64) {
	t.Helper()
	reg := region.Create(1<<20, nvm.Config{})
	lm := locks.NewManager(reg)
	m := New(reg, lm, prog, mode)
	tbl, err := reg.Alloc.Alloc(8 * (fuzzSlots + 1))
	if err != nil {
		t.Fatal(err)
	}
	l, err := lm.Create()
	if err != nil {
		t.Fatal(err)
	}
	reg.Dev.Store64(tbl, l.Holder())
	vr := rand.New(rand.NewSource(seed))
	for s := 1; s <= fuzzSlots; s++ {
		reg.Dev.Store64(tbl+uint64(s)*8, uint64(vr.Intn(100)))
	}
	reg.Dev.PersistRange(tbl, 8*(fuzzSlots+1))
	reg.Dev.Fence()
	reg.SetRoot(1, tbl)
	return m, reg, tbl
}

func slotsOf(reg *region.Region, tbl uint64) [fuzzSlots]uint64 {
	var out [fuzzSlots]uint64
	for s := 1; s <= fuzzSlots; s++ {
		out[s-1] = reg.Dev.Load64(tbl + uint64(s)*8)
	}
	return out
}

// referenceStates runs the program under ModeOrigin for up to n calls and
// records the slot state after each call count 0..n.
func referenceStates(t *testing.T, prog *compile.Compiled, seed int64, n int) [][fuzzSlots]uint64 {
	t.Helper()
	m, reg, tbl := fuzzWorld(t, prog, ModeOrigin, seed)
	th, err := m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	states := [][fuzzSlots]uint64{slotsOf(reg, tbl)}
	for i := 0; i < n; i++ {
		if _, err := th.Call("f", tbl); err != nil {
			t.Fatal(err)
		}
		states = append(states, slotsOf(reg, tbl))
	}
	return states
}

// thirdCallEvents counts the device events of the third call of f under
// ModeIDO: crash budgets 0..n-1 fire inside it, n runs it to the end.
func thirdCallEvents(t *testing.T, prog *compile.Compiled, seed int64) int64 {
	t.Helper()
	m, reg, tbl := fuzzWorld(t, prog, ModeIDO, seed)
	th, err := m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := th.Call("f", tbl); err != nil {
			t.Fatal(err)
		}
	}
	return deviceEvents(reg.Dev, func() {
		if _, err := th.Call("f", tbl); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFuzzCompiledSemanticsMatchOrigin(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		src := genProgram(rng)
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		prog, err := compile.Program(p, compile.Config{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		ref := referenceStates(t, prog, int64(trial), 3)

		m, reg, tbl := fuzzWorld(t, prog, ModeIDO, int64(trial))
		th, err := m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 3; call++ {
			if _, err := th.Call("f", tbl); err != nil {
				t.Fatalf("trial %d call %d: %v", trial, call, err)
			}
			if got := slotsOf(reg, tbl); got != ref[call] {
				t.Fatalf("trial %d: iDO state after call %d diverges\nprogram:\n%s\ngot:  %v\nwant: %v",
					trial, call, src, got, ref[call])
			}
		}
	}
}

func TestFuzzCrashRecoveryMatchesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		prng := rand.New(rand.NewSource(int64(2000 + trial)))
		src := genProgram(prng)
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile.Program(p, compile.Config{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		ref := referenceStates(t, prog, int64(trial), 3)

		m, reg, tbl := fuzzWorld(t, prog, ModeIDO, int64(trial))
		th, err := m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		// Two clean calls, then a crash somewhere inside the third.
		for i := 0; i < 2; i++ {
			if _, err := th.Call("f", tbl); err != nil {
				t.Fatal(err)
			}
		}
		m.SetCrashBudget(int64(rng.Intn(int(thirdCallEvents(t, prog, int64(trial))) + 1)))
		_, callErr := th.Call("f", tbl)
		m.SetCrashBudget(-1)

		mode := nvm.CrashMode(rng.Intn(3))
		reg2, err := reg.Crash(mode, rng)
		if err != nil {
			t.Fatal(err)
		}
		m2 := New(reg2, locks.NewManager(reg2), prog, ModeIDO)
		st, err := m2.Recover()
		if err != nil {
			t.Fatalf("trial %d: recover: %v\n%s", trial, err, src)
		}
		got := slotsOf(reg2, reg2.Root(1))
		if got != ref[2] && got != ref[3] {
			t.Fatalf("trial %d (crash=%v, resumed=%d): state matches neither prefix\nprogram:\n%s\ngot: %v\nafter2: %v\nafter3: %v",
				trial, callErr != nil, st.Resumed, src, got, ref[2], ref[3])
		}
		// If the third call completed or was resumed, it must be ref[3].
		if (callErr == nil || st.Resumed > 0) && got != ref[3] {
			t.Fatalf("trial %d: completed/resumed call not reflected\n%s", trial, src)
		}
	}
}

// TestFuzzDecodedVsLegacy is the engine differential over random
// programs: the threaded-code engine and the legacy tree-walker must
// produce identical slot states and device event counts (so every
// crash-injection point) — and when a random budget fires, they must
// crash at the same point and recover to the same state.
func TestFuzzDecodedVsLegacy(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		prng := rand.New(rand.NewSource(int64(3000 + trial)))
		src := genProgram(prng)
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile.Program(p, compile.Config{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		for _, mode := range []Mode{ModeOrigin, ModeIDO, ModeJUSTDO} {
			run := func(legacy bool) ([fuzzSlots]uint64, nvm.Stats) {
				m, reg, tbl := fuzzWorld(t, prog, mode, int64(trial))
				m.useLegacy(legacy)
				th, err := m.NewThread()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if _, err := th.Call("f", tbl); err != nil {
						t.Fatalf("trial %d mode %v: %v\n%s", trial, mode, err, src)
					}
				}
				return slotsOf(reg, tbl), reg.Dev.Stats()
			}
			ds, dd := run(false)
			ls, ld := run(true)
			if ds != ls {
				t.Fatalf("trial %d mode %v: slot states diverge\n%s\ndecoded: %v\nlegacy:  %v", trial, mode, src, ds, ls)
			}
			if dd != ld {
				t.Fatalf("trial %d mode %v: device stats diverge\n%s\ndecoded: %+v\nlegacy:  %+v", trial, mode, src, dd, ld)
			}
		}
	}
}

// TestFuzzDecodedCrashRecoverDifferential crashes both engines at the
// same random budget and recovers each with its own engine; the
// post-recovery slot states must be identical word for word (a stronger
// claim than matching a reference prefix: resumption itself must follow
// the same path through the flat stream as through the block tree).
func TestFuzzDecodedCrashRecoverDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		prng := rand.New(rand.NewSource(int64(4000 + trial)))
		src := genProgram(prng)
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile.Program(p, compile.Config{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		budget := int64(rng.Intn(int(thirdCallEvents(t, prog, int64(trial))) + 1))
		run := func(legacy bool) (bool, [fuzzSlots]uint64, int) {
			m, reg, tbl := fuzzWorld(t, prog, ModeIDO, int64(trial))
			m.useLegacy(legacy)
			th, err := m.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := th.Call("f", tbl); err != nil {
					t.Fatal(err)
				}
			}
			m.SetCrashBudget(budget)
			_, callErr := th.Call("f", tbl)
			m.SetCrashBudget(-1)
			reg2, err := reg.Crash(nvm.CrashDiscard, nil)
			if err != nil {
				t.Fatal(err)
			}
			m2 := New(reg2, locks.NewManager(reg2), prog, ModeIDO)
			m2.useLegacy(legacy)
			st, err := m2.Recover()
			if err != nil {
				t.Fatalf("trial %d: recover: %v\n%s", trial, err, src)
			}
			return callErr != nil, slotsOf(reg2, reg2.Root(1)), st.Resumed
		}
		dCrashed, dState, dRes := run(false)
		lCrashed, lState, lRes := run(true)
		if dCrashed != lCrashed || dRes != lRes {
			t.Fatalf("trial %d budget %d: crash/resume behavior diverges (decoded crashed=%v resumed=%d, legacy crashed=%v resumed=%d)\n%s",
				trial, budget, dCrashed, dRes, lCrashed, lRes, src)
		}
		if dState != lState {
			t.Fatalf("trial %d budget %d: recovered states diverge\n%s\ndecoded: %v\nlegacy:  %v",
				trial, budget, src, dState, lState)
		}
	}
}
