package core

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/region"
)

// newTracedFixture is newFixture with a tracer attached at device birth.
func newTracedFixture(t *testing.T, tr *obs.Tracer) *fixture {
	t.Helper()
	reg := region.Create(1<<18, nvm.Config{Tracer: tr})
	lm := locks.NewManager(reg)
	rt := New(DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
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
	reg.SetRoot(rootCtr, ctr)
	reg.SetRoot(rootLock, lock.Holder())
	return &fixture{reg: reg, lm: lm, rt: rt, lock: lock, ctr: ctr}
}

// TestTracedFASECountsMatchDevice runs increments on a traced native
// runtime and checks the per-kind event counts equal the device stats,
// and that the FASE-level events landed.
func TestTracedFASECountsMatchDevice(t *testing.T) {
	tr := obs.New(obs.DefaultConfig())
	f := newTracedFixture(t, tr)
	th, err := f.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.incrementFASE(th, &crasher{k: -1})
	}
	ds := f.reg.Dev.Stats()
	for _, c := range []struct {
		kind obs.Kind
		want uint64
	}{
		{obs.KFlush, ds.Flushes},
		{obs.KFence, ds.Fences},
		{obs.KNTStore, ds.NTStores},
		{obs.KEvict, ds.Evictions},
	} {
		if got := tr.Count(c.kind); got != c.want {
			t.Errorf("traced %s count %d != device count %d", c.kind, got, c.want)
		}
	}
	if got := tr.Count(obs.KFASE); got != 10 {
		t.Errorf("traced %d FASE spans, want 10", got)
	}
	if got := tr.Count(obs.KLockAcq); got != 10 {
		t.Errorf("traced %d lock acquisitions, want 10", got)
	}
	if s := tr.Hist(obs.HLogBytesPerFASE); s.Count != 10 {
		t.Errorf("log-bytes histogram has %d samples, want 10", s.Count)
	}
}

// TestRecoveryAuditAtEveryPoint replays the crash sweep and checks the
// audit trail agrees with what recovery actually did at each point.
func TestRecoveryAuditAtEveryPoint(t *testing.T) {
	for k := 0; k < 7; k++ {
		f := newFixture(t)
		th, err := f.rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		runWithCrash(func() { f.incrementFASE(th, &crasher{k: k}) })
		f2 := f.reopen(t, nvm.CrashDiscard, rand.New(rand.NewSource(int64(k))))
		st, err := f2.rt.Recover(f2.registry())
		if err != nil {
			t.Fatalf("k=%d: recover: %v", k, err)
		}
		if st.Audit == nil {
			t.Fatalf("k=%d: recovery returned no audit", k)
		}
		if st.Audit.Runtime != "ido" {
			t.Fatalf("k=%d: audit runtime = %q, want ido", k, st.Audit.Runtime)
		}
		if got := len(st.Audit.Threads); got != int(st.Threads) {
			t.Fatalf("k=%d: audit has %d threads, stats counted %d", k, got, st.Threads)
		}
		if got := st.Audit.Resumed(); got != st.Resumed {
			t.Fatalf("k=%d: audit counts %d resumed, stats %d", k, got, st.Resumed)
		}
		for _, ta := range st.Audit.Threads {
			switch ta.Action {
			case obs.AuditResumed:
				// The FASE publishes at its first store, in ridIncB.
				if ta.RegionID != ridIncB {
					t.Fatalf("k=%d: resumed region %#x, want %#x", k, ta.RegionID, ridIncB)
				}
				if len(ta.Locks) != 1 {
					t.Fatalf("k=%d: resumed with %d locks, want 1", k, len(ta.Locks))
				}
				// One word per record pair the pc covers: the publish
				// carried the counter value ridIncB's boundary logged.
				if ta.WordsRestored != 1 {
					t.Fatalf("k=%d: region %#x restored %d words, want 1", k, ta.RegionID, ta.WordsRestored)
				}
			case obs.AuditIdle, obs.AuditScrubbed:
				if ta.RegionID != 0 {
					t.Fatalf("k=%d: %s log carries region %#x", k, ta.Action, ta.RegionID)
				}
				// A crash between Lock and the first store (k=1..4) leaves
				// a lock record under recovery_pc == 0: scrubbed.
				if scrub := k >= 1 && k <= 4; scrub != (ta.Action == obs.AuditScrubbed) {
					t.Fatalf("k=%d: log is %s", k, ta.Action)
				}
			default:
				t.Fatalf("k=%d: unexpected audit action %q", k, ta.Action)
			}
		}
		// Crash point 5 is after the store published ridIncB: the log must
		// show a mid-FASE region and recovery must resume it.
		if k == 5 && st.Audit.Resumed() != 1 {
			t.Fatalf("k=%d: crash mid-FASE but audit shows %d resumed", k, st.Audit.Resumed())
		}
		// Before the first store (k=0..4) or after unlock (k=6) nothing
		// can be resumed.
		if k != 5 && st.Audit.Resumed() != 0 {
			t.Fatalf("k=%d: nothing to recover but audit shows %d resumed", k, st.Audit.Resumed())
		}
		// The report must render and name the runtime.
		if rpt := st.Audit.String(); !strings.Contains(rpt, "recovery audit (ido") {
			t.Fatalf("k=%d: audit report missing header: %q", k, rpt)
		}
	}
}

// TestRecoveryIsTracedWhenTracerAttached attaches a tracer to the
// surviving device before recovery and checks the recovery phases and
// lock re-acquisitions show up in the trace.
func TestRecoveryIsTracedWhenTracerAttached(t *testing.T) {
	f := newFixture(t)
	th, err := f.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	runWithCrash(func() { f.incrementFASE(th, &crasher{k: 5}) }) // mid-FASE, past its store
	f2 := f.reopen(t, nvm.CrashDiscard, rand.New(rand.NewSource(3)))
	tr := obs.New(obs.DefaultConfig())
	f2.reg.Dev.SetTracer(tr)
	st, err := f2.rt.Recover(f2.registry())
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed != 1 {
		t.Fatalf("resumed %d FASEs, want 1", st.Resumed)
	}
	if got := tr.Count(obs.KRecovery); got < 2 {
		t.Fatalf("traced %d recovery phase spans, want >= 2 (scan + resume)", got)
	}
	if got := tr.Count(obs.KLockAcq); got == 0 {
		t.Fatal("recovery re-acquired a lock but traced no lock-acquire event")
	}
}
