package vm

import (
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/region"
)

// buildTraced is build() with a tracer attached at device birth, so the
// traced event counts equal the device's counters exactly (region
// formatting included).
func buildTraced(t *testing.T, mode Mode, tr *obs.Tracer) *world {
	t.Helper()
	prog, err := ir.Parse(kernels)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile.Program(prog, compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<22, nvm.Config{Tracer: tr})
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

// runObsWorkload performs a deterministic inc+push+pop mix.
func runObsWorkload(t *testing.T, w *world) {
	t.Helper()
	th, err := w.m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := th.Call("inc", w.stk); err != nil {
			t.Fatal(err)
		}
		if _, err := th.Call("push", w.stk, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := th.Call("pop", w.stk); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertCountsMatch checks the tracer invariant: every device stat count
// is paired with exactly one trace event.
func assertCountsMatch(t *testing.T, label string, tr *obs.Tracer, ds nvm.Stats) {
	t.Helper()
	for _, c := range []struct {
		kind obs.Kind
		want uint64
	}{
		{obs.KFlush, ds.Flushes},
		{obs.KFence, ds.Fences},
		{obs.KNTStore, ds.NTStores},
		{obs.KEvict, ds.Evictions},
		{obs.KCrash, ds.Crashes},
	} {
		if got := tr.Count(c.kind); got != c.want {
			t.Errorf("%s: traced %s count %d != device count %d", label, c.kind, got, c.want)
		}
	}
}

// TestTracingPreservesDeviceCounts runs the same workload with tracing
// off and on: the device must emit the identical event counts (tracing is
// observation, not perturbation), and the trace must count them exactly.
func TestTracingPreservesDeviceCounts(t *testing.T) {
	for _, mode := range []Mode{ModeOrigin, ModeIDO, ModeJUSTDO} {
		plain := build(t, mode, compile.Config{})
		runObsWorkload(t, plain)

		tr := obs.New(obs.DefaultConfig())
		traced := buildTraced(t, mode, tr)
		runObsWorkload(t, traced)

		if p, q := plain.reg.Dev.Stats(), traced.reg.Dev.Stats(); p != q {
			t.Errorf("%v: device stats diverge with tracing on\nplain:  %+v\ntraced: %+v", mode, p, q)
		}
		assertCountsMatch(t, mode.String(), tr, traced.reg.Dev.Stats())
	}
}

// TestExportedTraceCountsMatchStats exports a traced run to a Chrome
// trace file and proves the per-kind event counts inside the file equal
// the device's counters — the end-to-end acceptance invariant.
func TestExportedTraceCountsMatchStats(t *testing.T) {
	tr := obs.New(obs.DefaultConfig())
	w := buildTraced(t, ModeIDO, tr)
	runObsWorkload(t, w)
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("workload overflowed the rings (%d dropped); shrink it or grow the caps", d)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := tr.ExportChromeFile(path); err != nil {
		t.Fatal(err)
	}
	ds := w.reg.Dev.Stats()
	for _, c := range []struct {
		kind obs.Kind
		want uint64
	}{
		{obs.KFlush, ds.Flushes},
		{obs.KFence, ds.Fences},
	} {
		n, err := obs.CountInFile(path, c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(n) != c.want {
			t.Errorf("file has %d %s events, device counted %d", n, c.kind, c.want)
		}
	}
}

// TestTracedCrashRecoverSweep injects a crash at every budget with
// tracing live through both the crash and the recovery, and checks that
// (a) the recovered state matches the untraced oracle, (b) the audit
// trail is present and consistent, and (c) every event is well-formed.
func TestTracedCrashRecoverSweep(t *testing.T) {
	run := func(tr *obs.Tracer, budget int64) (uint64, *obs.RecoveryAudit) {
		var w *world
		if tr != nil {
			w = buildTraced(t, ModeIDO, tr)
		} else {
			w = build(t, ModeIDO, compile.Config{})
		}
		th, err := w.m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		w.m.SetCrashBudget(budget)
		for i := 0; i < 4; i++ {
			if _, err := th.Call("inc", w.stk); err == ErrCrashed {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		w2 := w.reopen(t, nvm.CrashDiscard, rand.New(rand.NewSource(1)), ModeIDO)
		if tr != nil {
			w2.reg.Dev.SetTracer(tr)
		}
		st, err := w2.m.Recover()
		if err != nil {
			t.Fatalf("budget %d: recover: %v", budget, err)
		}
		return w2.reg.Dev.Load64(w2.stk + 8), st.Audit
	}
	// Budgets 0..events: every crash point of the four incs, and the
	// clean run.
	p := build(t, ModeIDO, compile.Config{})
	th, err := p.m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	events := deviceEvents(p.reg.Dev, func() {
		for i := 0; i < 4; i++ {
			if _, err := th.Call("inc", p.stk); err != nil {
				t.Fatal(err)
			}
		}
	})
	for budget := int64(0); budget <= events; budget++ {
		tr := obs.New(obs.DefaultConfig())
		got, audit := run(tr, budget)
		want, _ := run(nil, budget)
		if got != want {
			t.Fatalf("budget %d: traced run recovered counter %d, untraced %d", budget, got, want)
		}
		if audit == nil {
			t.Fatalf("budget %d: recovery returned no audit", budget)
		}
		for _, ta := range audit.Threads {
			if ta.Action == obs.AuditResumed && ta.RegionID == 0 {
				t.Fatalf("budget %d: resumed thread %d has no region id", budget, ta.ThreadID)
			}
		}
		for _, e := range tr.Events() {
			if int(e.Kind) >= obs.NumKinds || e.TS < 0 || e.Dur < 0 {
				t.Fatalf("budget %d: malformed event %+v", budget, e)
			}
		}
	}
}

// TestRecoveryAuditResumed pins a mid-FASE crash and checks the audit
// records the full story: the lock re-acquired, the region resumed, and
// the words restored.
func TestRecoveryAuditResumed(t *testing.T) {
	// Find a budget where the crash lands mid-FASE with the pc published.
	for budget := int64(1); budget <= 120; budget++ {
		w := build(t, ModeIDO, compile.Config{})
		th, err := w.m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		w.m.SetCrashBudget(budget)
		crashed := false
		for i := 0; i < 4; i++ {
			if _, err := th.Call("inc", w.stk); err == ErrCrashed {
				crashed = true
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if !crashed {
			continue
		}
		w2 := w.reopen(t, nvm.CrashDiscard, rand.New(rand.NewSource(1)), ModeIDO)
		st, err := w2.m.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if st.Audit == nil || st.Audit.Resumed() == 0 {
			continue // crash landed outside a published region
		}
		if st.Audit.Runtime != "vm-ido" {
			t.Fatalf("audit runtime = %q, want vm-ido", st.Audit.Runtime)
		}
		var res *obs.ThreadAudit
		for i := range st.Audit.Threads {
			if st.Audit.Threads[i].Action == obs.AuditResumed {
				res = &st.Audit.Threads[i]
			}
		}
		if res == nil {
			t.Fatal("Resumed() > 0 but no resumed thread record")
		}
		if res.RegionID == 0 || res.RecoveryPC == 0 {
			t.Fatalf("resumed record missing region/pc: %+v", res)
		}
		if len(res.Locks) != 1 {
			t.Fatalf("resumed record re-acquired %d locks, want 1", len(res.Locks))
		}
		if res.WordsRestored == 0 {
			t.Fatal("resumed record restored no words")
		}
		return // one fully-audited resumption is the test
	}
	t.Fatal("no budget in [1,120] produced an audited resumption")
}

// TestDisabledTracerZeroAllocCall proves the disabled-tracer fast path
// and the per-thread return buffer together make Call allocation-free.
func TestDisabledTracerZeroAllocCall(t *testing.T) {
	w := build(t, ModeIDO, compile.Config{})
	th, err := w.m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Call("inc", w.stk); err != nil { // warm caches, retBuf
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := th.Call("inc", w.stk); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Call allocates %.1f times per op with tracing disabled, want 0", avg)
	}
}
