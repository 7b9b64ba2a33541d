package idolog

import (
	"fmt"
	"iter"
	"sync"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Adopt is the runtime's half of recovery. Recover calls it once per log
// on the list, in list order, on the walking goroutine, with the crashed
// thread's id and its recovery_pc word. It returns the Log embedded in a
// fresh thread of the runtime's own type, which Recover then opens on the
// crashed log, and — for pc != 0 — the step that enters the interrupted
// code and runs it to the end of its FASE: the jump to recovery_pc. The
// step runs on a goroutine of its own once every crashed thread's locks
// are re-acquired, with the register file the log decodes to (nil for a
// raw log, whose runtime reads its own record). An error means pc cannot
// be resumed; Recover fails with it before any FASE resumes.
//
// The thread outlives recovery. Once Recover has returned nil, every
// adopted log is idle — it was, or its resumed FASE has run to its end —
// and the runtime keeps the threads whose log Fits its own layout as the
// spares in its persist.Threads, handing them out as new ones (Reuse)
// instead of creating a log per thread per restart.
type Adopt func(id int, pc uint64) (l *Log, resume func(rf []uint64), err error)

// Fits reports whether the log has exactly the layout a runtime's Create
// passes (regs, stride, raw) and no FASE open: whether that runtime can
// hand it out again. A log of another layout, an ablation's or another
// runtime's, stays on the list unused.
func (l *Log) Fits(regs int, stride uint64, raw bool) bool {
	return l.regs == regs && l.stride == stride && l.raw == raw && l.Depth() == 0
}

// Reuse gives a log Recover adopted to a new thread in place of Create:
// the log keeps its address and id, leaves recovery (a recursive Lock
// panics again) and traces as name/t<id>. It issues no device event.
func (l *Log) Reuse(name string) {
	l.recovering = false
	l.traceAs(name, "")
}

// Recover implements §III-C in three steps, with one recovery thread per
// interrupted FASE. name is the runtime's, for the audit and the trace
// rings.
//
//  1. Walk the persistent log list, adopting a thread per log. Logs with
//     recovery_pc == 0 and live lock slots (the thread was in a FASE's
//     read-only prefix, or in the benign robbed-lock window between mutex
//     acquisition and the slot's record) are scrubbed.
//  2. Restore, on the calling goroutine in walk order, each interrupted
//     thread's lock slots, and re-acquire its locks: the barrier. Nothing
//     has resumed and each lock was held by at most one crashed thread, so
//     no acquire waits. A restore that fails other than by a crash
//     releases every lock the step took.
//  3. Resume each interrupted region forward to the end of its FASE on a
//     goroutine of its own, and wait for them all: a resumed FASE may wait
//     on a lock another one releases.
//
// A crash injected in any step surfaces as nvm.CrashSignal, re-raised once
// every resume goroutine has stopped; any other failure is the first error
// in walk order. With at most one interrupted FASE the device sees one
// goroutine at a time, so a recovery-scoped crash budget names the same
// event on every replay.
func Recover(reg *region.Region, lm *locks.Manager, name string, adopt Adopt) (persist.RecoveryStats, error) {
	return persist.Recover(reg, name, func(ps *persist.Pass) error {
		return recoverPass(ps, reg, lm, name, adopt)
	})
}

func recoverPass(ps *persist.Pass, reg *region.Region, lm *locks.Manager, name string, adopt Adopt) error {
	dev := reg.Dev
	type pending struct {
		l        *Log
		pc, bits uint64 // the log's recovery_pc word and lock bitmap
		ai       int    // index into ps.Audit.Threads
		rf       []uint64
		resume   func(rf []uint64)
		locks    []uint64
		acquired int // locks actually re-acquired (slot order)
		crashed  bool
		err      error
	}
	var work []*pending

	for p, err := range walk(reg) {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		opened, err := open(dev, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ps.Threads++
		ps.LogEntries++
		pc := dev.Load64(p + logPC)
		bits := dev.Load64(p + logLockBits)
		opened.recovering = true
		opened.traceAs(name, "-rec")
		audit := obs.ThreadAudit{ThreadID: opened.id, LogAddr: p, Action: obs.AuditIdle, RecoveryPC: pc}
		l, step, err := adopt(opened.id, pc)
		if err != nil {
			ps.Audit.Add(audit)
			return err
		}
		*l = opened

		if pc == 0 {
			// Nothing stored, nothing to resume. Scrub any recorded slots.
			if bits != 0 {
				for i := 0; i < NumSlots; i++ {
					dev.Store64(p+l.slotOff(i), 0)
				}
				dev.Store64(p+logLockBits, 0)
				dev.PersistRange(p+l.slotOff(hdrSlots), (NumSlots-hdrSlots)*8)
				dev.CLWB(p + logLockBits)
				dev.Fence()
				audit.Action = obs.AuditScrubbed
			}
			ps.Audit.Add(audit)
			continue
		}

		// The thread carries on as the published FASE it was: behind the
		// pairs its pc covers, inside the open region.
		w := &pending{l: l, pc: pc, bits: bits, resume: step}
		l.pub, l.inRegion = true, true
		if l.raw {
			audit.Action = obs.AuditReplayed
			audit.WordsRestored = l.regs + 1 // the register slots and the replayed record
		} else {
			var baseValid bool
			l.curRegion, l.pairs, baseValid = Unpack(pc)
			l.put = l.pairs
			if baseValid {
				l.base = pcBase
			}
			if w.rf, _, err = l.decode(l.pairs, baseValid); err != nil {
				ps.Audit.Add(audit)
				return fmt.Errorf("%s: %w", name, err)
			}
			copy(l.rf, w.rf)
			audit.Action = obs.AuditResumed
			audit.RegionID = l.curRegion
			audit.WordsRestored = l.pairs + int(l.base/pcBase)*l.regs // pairs, over the base image if live
		}
		ps.Audit.Add(audit)
		w.ai = len(ps.Audit.Threads) - 1
		work = append(work, w)
	}
	ps.Scanned()
	rc := ps.Ring

	// restore reads one interrupted thread's lock slots from its log and
	// re-acquires its locks. An injected crash propagates; another panic
	// (a slot naming no lock holder) is the restore's error.
	restore := func(w *pending) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, crash := r.(nvm.CrashSignal); crash {
					panic(r)
				}
				err = fmt.Errorf("%s: restore of log %#x panicked: %v", name, w.l.addr, r)
			}
		}()
		l := w.l
		l.slots = l.loadSlots(w.bits)
		for i, h := range l.slots {
			if h != 0 {
				l.bits |= 1 << uint(i)
				w.locks = append(w.locks, h)
			}
		}
		if len(w.locks) == 0 {
			l.durableDepth = 1 // a programmer-delineated FASE was active
		}
		for _, h := range w.locks {
			lm.ByHolder(h).Acquire()
			w.acquired++
			l.rc.Emit(obs.KLockAcq, h, 0)
		}
		return nil
	}
	acqT0 := rc.Clock()
	var locksTotal uint64
	for i, w := range work {
		if err := restore(w); err != nil {
			// Only the first w.acquired of each thread's locks are held:
			// releasing one never acquired is a fatal unlock of an
			// unlocked mutex.
			for _, w := range work[:i+1] {
				for _, h := range w.locks[:w.acquired] {
					lm.ByHolder(h).Release()
				}
			}
			return err
		}
		ps.Audit.Threads[w.ai].Locks = w.locks
		locksTotal += uint64(len(w.locks))
	}
	rc.Span(obs.KRecovery, obs.PhaseReacquire, locksTotal, acqT0)

	resumeT0 := rc.Clock()
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, crash := r.(nvm.CrashSignal); crash {
						w.crashed = true
					} else {
						w.err = fmt.Errorf("%s: resume at pc %#x panicked: %v", name, w.pc, r)
					}
				}
			}()
			w.resume(w.rf)
		}()
	}
	wg.Wait()
	for _, w := range work {
		if w.crashed {
			panic(nvm.CrashSignal{})
		}
	}
	for _, w := range work {
		if w.err != nil {
			return w.err
		}
	}
	rc.Span(obs.KRecovery, obs.PhaseResume, uint64(len(work)), resumeT0)
	ps.Resumed = len(work)
	return nil
}

// loadSlots reads the lock_array slots the bitmap marks live (0 for the
// rest).
func (l *Log) loadSlots(bits uint64) (slots [NumSlots]uint64) {
	for i := range slots {
		if bits&(1<<uint(i)) != 0 {
			slots[i] = l.dev.Load64(l.addr + l.slotOff(i))
		}
	}
	return slots
}

// decode reads what a recovery_pc with the given pair count and base flag
// covers in the log: the pairs in log order, and the register file they
// replay to (the base image if live, else zeros, under them). A count
// beyond the record area or a pair naming a register beyond the log's
// capacity means the log is corrupt; guessing would resume the FASE with
// a wrong register file.
func (l *Log) decode(n int, baseValid bool) (rf []uint64, pairs []persist.RegVal, err error) {
	if n > RecPairs {
		return nil, nil, fmt.Errorf("corrupt log %#x: recovery_pc covers %d record pairs, the record area holds %d", l.addr, n, RecPairs)
	}
	rf = make([]uint64, l.regs)
	if baseValid {
		for r := range rf {
			rf[r] = l.dev.Load64(l.RegAddr(r))
		}
	}
	pairs = make([]persist.RegVal, n)
	for i := range pairs {
		pa := l.addr + l.recBase + uint64(i)*16
		reg, val := l.dev.Load64(pa), l.dev.Load64(pa+8)
		if reg >= uint64(l.regs) {
			return nil, nil, fmt.Errorf("corrupt log %#x: record pair %d names register %d of %d", l.addr, i, reg, l.regs)
		}
		rf[reg] = val
		pairs[i] = persist.RegVal{Reg: int(reg), Val: val}
	}
	return rf, pairs, nil
}

// Entry is a read-only view of one per-thread log, for post-mortem
// inspection (cmd/idolog).
type Entry struct {
	LogAddr   uint64
	ThreadID  int
	Regs      int              // the log's register capacity
	Raw       bool             // PC is the owning runtime's own encoding; nothing below it is decoded
	PC        uint64           // the recovery_pc word; 0 when there is nothing to resume
	RegionID  uint64           // 0 when the thread was not mid-FASE, or the log is raw
	Pairs     []persist.RegVal // boundary records the pc covers, in log order
	BaseValid bool             // the pc's base-image flag: a compaction happened
	RF        []uint64         // register file recovery would hand the resume entry; nil when idle
	Locks     []uint64         // holder addresses recorded in the lock array
}

// Inspect walks a region's log list without mutating anything. On a
// corrupt log it returns the entries before it and the error.
func Inspect(reg *region.Region) ([]Entry, error) {
	dev := reg.Dev
	var out []Entry
	for p, err := range walk(reg) {
		if err != nil {
			return out, err
		}
		l, err := open(dev, p)
		if err != nil {
			return out, err
		}
		e := Entry{LogAddr: p, ThreadID: l.id, Regs: l.regs, Raw: l.raw, PC: dev.Load64(p + logPC)}
		if e.PC != 0 && !l.raw {
			var n int
			e.RegionID, n, e.BaseValid = Unpack(e.PC)
			if e.RF, e.Pairs, err = l.decode(n, e.BaseValid); err != nil {
				return out, err
			}
		}
		for _, h := range l.loadSlots(dev.Load64(p + logLockBits)) {
			if h != 0 {
				e.Locks = append(e.Locks, h)
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// walk is the region's iDO log list (region.Chain's checks, over each
// log's header line), for Recover and Inspect alike.
func walk(reg *region.Region) iter.Seq2[uint64, error] {
	return reg.List(region.RootIDOHead, logNext, rfBase)
}

// open reads the header of the log at p, a line the walk has checked, and
// checks the layout it declares: a corrupt header or a log running past
// the device is an error, not a guess.
func open(dev *nvm.Device, p uint64) (l Log, err error) {
	l.addr = p
	if err := l.setLayout(dev, dev.Load64(p+logMeta)); err != nil {
		return l, fmt.Errorf("log %#x: corrupt header: %w", p, err)
	}
	if end, size := p+l.slotOff(NumSlots), uint64(dev.Size()); end > size {
		return l, fmt.Errorf("log %#x: runs to %#x, past the device's %d bytes", p, end, size)
	}
	return l, nil
}
