package vm

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
)

// TestRestartReusesLogs is core's test of the same name on the VM: K
// threads, 20 crash → Recover → recreate cycles, and every restart walks
// K logs, holds the same heap bytes (log and stack frame are both reused)
// and hands the ids back. Each cycle the last thread dies between the
// store and the unlock of a second inc; in one cycle the crash budget
// fires there in the first call a reused thread makes.
func TestRestartReusesLogs(t *testing.T) {
	const (
		k       = 3
		cycles  = 20
		crashAt = 7
	)
	// The crash budget: the first device event of inc at which a crash
	// leaves its FASE published (recovery_pc live), found on throwaway
	// worlds. inc is straight-line, so this one dies right after its
	// store published the FASE, before the unlock.
	published := int64(-1)
	for b := int64(0); published < 0; b++ {
		s := build(t, ModeIDO, compile.Config{})
		th, err := s.m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		s.m.SetCrashBudget(b)
		_, err = th.Call("inc", s.stk)
		s.m.SetCrashBudget(-1)
		if err == nil {
			t.Fatal("no crash point of inc leaves its FASE published")
		}
		if logs, err := idolog.Inspect(s.reg); err != nil || logs[0].PC != 0 {
			published = b
		}
	}
	w := build(t, ModeIDO, compile.Config{})
	interrupted := func(th *Thread) bool {
		th.m.SetCrashBudget(published)
		defer th.m.SetCrashBudget(-1)
		_, err := th.Call("inc", w.stk)
		return err == ErrCrashed
	}
	rng := rand.New(rand.NewSource(28))
	want := uint64(0) // the counter after every completed or resumed inc
	var allocated uint64
	var frames [k]uint64 // each id's stack frame, as first allocated
	for cycle := 0; cycle <= cycles; cycle++ {
		if cycle > 0 {
			w = w.reopen(t, nvm.CrashRandom, rng, ModeIDO)
			st, err := w.m.Recover()
			if err != nil {
				t.Fatalf("cycle %d: recover: %v", cycle, err)
			}
			if st.LogEntries != k || st.Resumed != 1 {
				t.Fatalf("cycle %d: recovery walked %d logs and resumed %d; want %d and 1", cycle, st.LogEntries, st.Resumed, k)
			}
			if logs, err := idolog.Inspect(w.reg); err != nil || len(logs) != k {
				t.Fatalf("cycle %d: %d logs on the list (%v), want %d", cycle, len(logs), err, k)
			}
			if got := w.reg.Dev.Load64(w.stk + 8); got != want {
				t.Fatalf("cycle %d: counter %d after recovery, the replayed calls give %d", cycle, got, want)
			}
		}
		ths := make([]*Thread, k)
		for i := range ths {
			th, err := w.m.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			if th.ID() != i {
				t.Fatalf("cycle %d: thread %d has id %d", cycle, i, th.ID())
			}
			if cycle == 0 {
				frames[i] = th.frame
			} else if th.frame != frames[i] || th.sp != th.frame {
				t.Fatalf("cycle %d: thread %d has frame %#x and sp %#x, want its frame %#x", cycle, i, th.frame, th.sp, frames[i])
			}
			ths[i] = th
		}
		if a := w.reg.Alloc.Stats().AllocatedBytes; cycle == 0 {
			allocated = a
		} else if a != allocated {
			t.Fatalf("cycle %d: %d bytes allocated, %d before the first crash", cycle, a, allocated)
		}

		if cycle == crashAt {
			if !interrupted(ths[0]) {
				t.Fatalf("cycle %d: the crash budget never fired in the first call", cycle)
			}
			want++ // published: the next Recover resumes it
			continue
		}
		for _, th := range ths {
			if _, err := th.Call("inc", w.stk); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			want++
		}
		if !interrupted(ths[k-1]) {
			t.Fatalf("cycle %d: the crash budget never fired", cycle)
		}
		want++
	}
}

// TestReusedLogWithoutFrame crashes NewThread at each of its device
// events. A crash after Create links the log but before the fence that
// makes its xFrame word durable leaves an idle log that names no frame;
// the thread that reuses it must get a frame of its own — allocated,
// durable, and not the region header at address 0.
func TestReusedLogWithoutFrame(t *testing.T) {
	const huge = int64(1) << 40
	w := build(t, ModeIDO, compile.Config{})
	w.reg.Dev.ArmLocalCrash(huge)
	if _, err := w.m.NewThread(); err != nil {
		t.Fatal(err)
	}
	events := huge - w.reg.Dev.LocalCrashBudgetRemaining()
	w.reg.Dev.ArmLocalCrash(-1)

	unframed := 0
	for n := int64(0); n < events; n++ {
		w := build(t, ModeIDO, compile.Config{})
		w.reg.Dev.ArmLocalCrash(n)
		crashed := runWithDeviceCrash(func() { _, _ = w.m.NewThread() })
		w.reg.Dev.ArmLocalCrash(-1)
		if !crashed {
			t.Fatalf("event %d of %d: the crash never fired", n, events)
		}
		w = w.reopen(t, nvm.CrashDiscard, nil, ModeIDO)
		if _, err := w.m.Recover(); err != nil {
			t.Fatalf("event %d: recover: %v", n, err)
		}
		linked := len(w.m.threads) == 1
		if linked && w.reg.Dev.Load64(w.m.threads[0].Extra()+xFrame) == 0 {
			unframed++
		}
		th, err := w.m.NewThread()
		if err != nil {
			t.Fatalf("event %d: %v", n, err)
		}
		if logs, err := idolog.Inspect(w.reg); err != nil || len(logs) != 1 || th.ID() != 0 {
			t.Fatalf("event %d: thread %d over %d logs (%v), want thread 0 over one (linked %v)", n, th.ID(), len(logs), err, linked)
		}
		inFrame, inLog := false, false
		if err := w.reg.Alloc.Audit(func(blk, size uint64) {
			if blk < th.frame && th.frame+frameSize <= blk+size {
				inFrame = true
				inLog = blk < th.Extra() && th.Extra() < blk+size
			}
		}); err != nil {
			t.Fatalf("event %d: %v", n, err)
		}
		if th.frame == 0 || th.sp != th.frame || !inFrame || inLog {
			t.Fatalf("event %d: the thread has frame %#x and sp %#x, not an allocated block of its own (linked %v)", n, th.frame, th.sp, linked)
		}
		if _, err := th.Call("inc", w.stk); err != nil {
			t.Fatalf("event %d: %v", n, err)
		}
		if got := w.reg.Dev.Load64(w.stk + 8); got != 1 {
			t.Fatalf("event %d: counter %d, want 1", n, got)
		}
		frame := th.frame
		w = w.reopen(t, nvm.CrashDiscard, nil, ModeIDO)
		if _, err := w.m.Recover(); err != nil {
			t.Fatalf("event %d: second recover: %v", n, err)
		}
		if th, err = w.m.NewThread(); err != nil {
			t.Fatalf("event %d: %v", n, err)
		}
		if th.frame != frame {
			t.Fatalf("event %d: after a second restart the frame is %#x, want the durable %#x", n, th.frame, frame)
		}
	}
	if unframed == 0 {
		t.Fatalf("none of NewThread's %d events left a linked log without a frame", events)
	}
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

// TestVMLogIsNeverHandedToCore: a log is reused only by a runtime that
// would have created it. core's 16-register log is not a VM log, and a
// JUSTDO (raw) log is not an iDO machine's.
func TestVMLogIsNeverHandedToCore(t *testing.T) {
	w := build(t, ModeIDO, compile.Config{})
	if _, err := w.m.NewThread(); err != nil {
		t.Fatal(err)
	}
	reg2, err := w.reg.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg2, locks.NewManager(reg2)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Recover(persist.NewResumeRegistry()); err != nil {
		t.Fatal(err)
	}
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if id := th.(*core.Thread).ID(); id != 1 {
		t.Fatalf("core's thread has id %d, want a new log's 1", id)
	}
	logs, err := idolog.Inspect(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 2 || logs[0].Regs != persist.MaxOutputs || logs[1].Regs != MaxRegs+1 {
		t.Fatalf("log list %+v, want a new core log ahead of the VM's", logs)
	}

	jw := build(t, ModeJUSTDO, compile.Config{})
	if _, err := jw.m.NewThread(); err != nil {
		t.Fatal(err)
	}
	iw := jw.reopen(t, nvm.CrashDiscard, nil, ModeIDO)
	if _, err := iw.m.Recover(); err != nil {
		t.Fatal(err)
	}
	ith, err := iw.m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if ith.ID() != 1 {
		t.Fatalf("the iDO machine's thread has id %d, want a new log's 1", ith.ID())
	}
}

// TestRecoverAfterNewThreadFails: Recover rebuilds the threads a machine
// hands out, so it cannot run once one is out.
func TestRecoverAfterNewThreadFails(t *testing.T) {
	for _, mode := range []Mode{ModeOrigin, ModeIDO, ModeJUSTDO} {
		w := build(t, mode, compile.Config{})
		if _, err := w.m.NewThread(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.m.Recover(); err == nil {
			t.Fatalf("%v: Recover after NewThread succeeded", mode)
		}
	}
}
