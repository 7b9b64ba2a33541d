package idolog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// step runs once every crashed thread's locks are re-acquired, with the
// register file the log decodes to (nil for a raw log, whose runtime
// reads its own record). An error means pc cannot be resumed; Recover
// fails with it before any FASE resumes.
//
// The thread outlives recovery. Once Recover has returned nil, every
// adopted log is idle — it was, or its resumed FASE has run to its end —
// and the runtime keeps the threads in its Spares to hand out as new ones
// instead of creating a log per thread per restart.
type Adopt func(id int, pc uint64) (l *Log, resume func(rf []uint64), err error)

// Spares holds the threads a runtime's last successful Recover adopted,
// for its NewThread to hand out before it creates a log. That keeps the
// log list, and so the next walk, as long as the most threads one
// incarnation ran at once, not growing by a log per thread per restart.
// T is the runtime's thread type, which embeds Log. The runtime guards
// its Spares with its own mutex.
type Spares[T interface{ log() *Log }] struct {
	idle   []T  // in list order: Take pops from the end, the oldest log
	handed bool // the runtime has handed out a thread
}

// Recovering is Recover's guard: it fails once the runtime has handed
// out a thread, whose log the walk would adopt from under it.
func (s *Spares[T]) Recovering(name string) error {
	if s.handed {
		return fmt.Errorf("%s: Recover after NewThread: recovery must come before the runtime's first thread", name)
	}
	return nil
}

// Keep makes the spares those of adopted — the threads a successful
// Recover adopted, in list order — whose log has exactly the layout the
// runtime's Create passes (regs, stride, raw) and no FASE open. A log of
// another layout, an ablation's or another runtime's, stays on the list
// unused.
func (s *Spares[T]) Keep(adopted []T, regs int, stride uint64, raw bool) {
	s.idle = s.idle[:0]
	for _, t := range adopted {
		if l := t.log(); l.regs == regs && l.stride == stride && l.raw == raw && l.Depth() == 0 {
			s.idle = append(s.idle, t)
		}
	}
}

// Take pops the spare with the oldest log and gives it to a new thread in
// place of Create: the log keeps its address and id, leaves recovery (a
// recursive Lock panics again) and traces as name/t<id>. It issues no
// device event, and reports false when no spare is left.
func (s *Spares[T]) Take(name string) (t T, ok bool) {
	n := len(s.idle)
	if n == 0 {
		return t, false
	}
	t = s.idle[n-1]
	s.idle = s.idle[:n-1]
	l := t.log()
	l.recovering = false
	l.traceAs(name, "")
	return t, true
}

// Handed records that the runtime has handed out a thread.
func (s *Spares[T]) Handed() { s.handed = true }

// Recover implements §III-C: walk the persistent log list, re-acquire each
// interrupted thread's locks, barrier, hand each thread its register file,
// and resume each interrupted region forward to the end of its FASE. Logs
// with recovery_pc == 0 and live lock slots (the thread was in a FASE's
// read-only prefix, or in the benign robbed-lock window between mutex
// acquisition and the slot's record) are scrubbed. name is the runtime's,
// for the audit and the trace rings.
func Recover(reg *region.Region, lm *locks.Manager, name string, adopt Adopt) (persist.RecoveryStats, error) {
	start := time.Now()
	dev := reg.Dev
	attempt := dev.EnterRecovery()
	defer dev.ExitRecovery()
	// With a recovery-scoped crash budget armed, run the single-goroutine
	// restore path: goroutine interleaving would make "the Nth device
	// event of recovery" a different event on every run, and the chaos
	// harness needs schedules to replay bit-for-bit. The serial path
	// preserves the §III-C barrier by finishing every restore/re-acquire
	// before the first resume.
	serial := dev.RecoveryCrashArmed()
	stats := persist.RecoveryStats{Attempt: attempt, Audit: &obs.RecoveryAudit{Runtime: name, Attempt: attempt}}
	var rc *obs.Ring
	if tr := dev.Tracer(); tr != nil {
		rc = tr.ThreadRing(name + "/recover")
	}
	scanT0 := rc.Clock()

	type pending struct {
		l        *Log
		pc, bits uint64 // the log's recovery_pc word and lock bitmap
		ai       int    // index into stats.Audit.Threads
		rf       []uint64
		resume   func(rf []uint64)
		locks    []uint64
		acquired int // locks actually re-acquired (slot order)
		err      error
	}
	var work []*pending

	// The re-acquire phase of each interrupted thread overlaps the serial
	// log walk: as soon as a log entry is decoded, a goroutine reads that
	// thread's lock slots and re-acquires its locks while the walk moves
	// on to the next entry. The acq group is the §III-C barrier — every
	// lock re-acquired before any thread resumes — and the gate
	// additionally holds resumption until the walk has seen every log,
	// preserving the all-threads-recovered-together contract. Each lock
	// was held by at most one crashed thread, so the acquisitions cannot
	// deadlock.
	var acq, done sync.WaitGroup
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	var abort atomic.Bool

	// A crash injected while this frame is driving the walk (or the
	// serial restore) must not strand launched goroutines: they block on
	// <-gate after their acq phase, and a panic that unwinds past this
	// frame would leak them — and the locks they re-acquired — forever.
	// Flag the abort, open the gate so they drain down the release path,
	// and re-raise.
	defer func() {
		if r := recover(); r != nil {
			abort.Store(true)
			openGate()
			done.Wait()
			panic(r)
		}
	}()

	// restore reads one interrupted thread's lock slots from its log and
	// re-acquires its locks. Panics propagate to the caller (each call
	// path wraps it per its own death semantics).
	restore := func(w *pending) {
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
	}
	// release drops the locks a failed/aborted thread actually grabbed so
	// the manager is not left poisoned for the caller's next attempt.
	// Only the first w.acquired were locked — a panic can land after
	// w.locks is filled but before (or mid) the acquisition loop, and
	// releasing a never-acquired lock would be a fatal
	// unlock-of-unlocked-mutex.
	release := func(w *pending) {
		for _, h := range w.locks[:w.acquired] {
			lm.ByHolder(h).Release()
		}
	}
	resume := func(w *pending) { w.resume(w.rf) }
	launch := func(w *pending) {
		defer done.Done()
		func() {
			defer acq.Done()
			defer func() {
				if r := recover(); r != nil {
					w.err = fmt.Errorf("%s: restore of log %#x panicked: %v", name, w.l.addr, r)
				}
			}()
			restore(w)
		}()
		<-gate
		if abort.Load() || w.err != nil {
			// The walk failed (or this restore did): nothing resumes.
			release(w)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				w.err = fmt.Errorf("%s: resume at pc %#x panicked: %v", name, w.pc, r)
			}
		}()
		resume(w)
	}

	var walkErr error
	list := walkList(reg)
	for {
		opened, ok, err := list.step()
		if !ok {
			if err != nil {
				walkErr = fmt.Errorf("%s: %w", name, err)
			}
			break
		}
		p := opened.addr
		stats.Threads++
		stats.LogEntries++
		pc := dev.Load64(p + logPC)
		bits := dev.Load64(p + logLockBits)
		opened.recovering = true
		opened.traceAs(name, "-rec")
		audit := obs.ThreadAudit{ThreadID: opened.id, LogAddr: p, Action: obs.AuditIdle, RecoveryPC: pc}
		l, step, err := adopt(opened.id, pc)
		if err != nil {
			walkErr = err
			stats.Audit.Add(audit)
			break
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
			stats.Audit.Add(audit)
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
				walkErr = fmt.Errorf("%s: %w", name, err)
				stats.Audit.Add(audit)
				break
			}
			copy(l.rf, w.rf)
			audit.Action = obs.AuditResumed
			audit.RegionID = l.curRegion
			audit.WordsRestored = l.pairs + int(l.base/pcBase)*l.regs // pairs, over the base image if live
		}
		stats.Audit.Add(audit)
		w.ai = len(stats.Audit.Threads) - 1
		work = append(work, w)
		if !serial {
			acq.Add(1)
			done.Add(1)
			go launch(w)
		}
	}
	rc.Span(obs.KRecovery, obs.PhaseScan, stats.LogEntries, scanT0)

	// guard runs one step of the deterministic serial path (restore every
	// thread, then resume every thread, here, in walk order). An injected
	// CrashSignal propagates — the crash kills recovery mid-flight and the
	// harness settles and re-recovers; another panic is the step's error.
	guard := func(label string, w *pending, step func(*pending)) bool {
		defer func() {
			if r := recover(); r != nil {
				if _, crash := r.(nvm.CrashSignal); crash {
					panic(r)
				}
				w.err = fmt.Errorf("%s: %s panicked: %v", name, label, r)
			}
		}()
		step(w)
		return w.err == nil
	}
	firstErr := walkErr
	if !serial {
		acq.Wait()
	} else if walkErr == nil {
		for _, w := range work {
			if !guard(fmt.Sprintf("restore of log %#x", w.l.addr), w, restore) {
				firstErr = w.err
				break
			}
		}
	}
	// Fold what the restores found into the audit, in walk order: the
	// slice is stable once the walk has finished, the locks final past the
	// barrier. The re-acquire span starts at scanT0: restores overlap the walk.
	var locksTotal uint64
	for _, w := range work {
		stats.Audit.Threads[w.ai].Locks = w.locks
		locksTotal += uint64(len(w.locks))
	}
	rc.Span(obs.KRecovery, obs.PhaseReacquire, locksTotal, scanT0)
	resumeT0 := rc.Clock()
	switch {
	case !serial:
		if walkErr != nil {
			abort.Store(true) // launched threads release instead of resuming
		}
		openGate()
		done.Wait()
		for _, w := range work {
			if firstErr == nil {
				firstErr = w.err
			}
		}
	case firstErr != nil:
		for _, w := range work {
			release(w)
		}
	default:
		for _, w := range work {
			if !guard(fmt.Sprintf("resume at pc %#x", w.pc), w, resume) {
				firstErr = w.err
				break
			}
		}
	}
	if firstErr != nil {
		return stats, firstErr
	}
	rc.Span(obs.KRecovery, obs.PhaseResume, uint64(len(work)), resumeT0)
	stats.Resumed = len(work)
	stats.Elapsed = time.Since(start)
	return stats, nil
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
	list := walkList(reg)
	for {
		l, ok, err := list.step()
		if !ok {
			return out, err
		}
		p := l.addr
		e := Entry{LogAddr: p, ThreadID: l.id, Regs: l.regs, Raw: l.raw, PC: dev.Load64(p + logPC)}
		if e.PC != 0 && !l.raw {
			var n int
			var err error
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
}

// listWalk steps along a region's log list, for Recover and Inspect
// alike. A region image can come from outside the program
// (region.OpenFile), so a link is trusted only as far as it can be
// checked: it must name a line-aligned log lying inside the device, and
// one the walk has not visited — a cycle would otherwise adopt a log
// twice, or never end. Distinct line-aligned logs also bound the walk at
// dev.Size()/nvm.LineSize entries.
type listWalk struct {
	dev  *nvm.Device
	head uint64   // the list's first link
	seen []uint64 // the logs walked so far, in list order
}

func walkList(reg *region.Region) listWalk {
	return listWalk{dev: reg.Dev, head: reg.Root(region.RootIDOHead), seen: make([]uint64, 0, 8)}
}

// step opens the next log on the list. It reports false at the end of
// the list, with an error when the list is corrupt.
func (w *listWalk) step() (l Log, ok bool, err error) {
	dev, size := w.dev, uint64(w.dev.Size())
	p := w.head
	if n := len(w.seen); n > 0 {
		p = dev.Load64(w.seen[n-1] + logNext) // read once the caller is done with that log
	}
	switch {
	case p == 0:
		return l, false, nil
	case p%nvm.LineSize != 0 || p > size-rfBase:
		return l, false, fmt.Errorf("log link %#x after %d logs names no line-aligned log header inside the device's %d bytes", p, len(w.seen), size)
	case slices.Contains(w.seen, p):
		return l, false, fmt.Errorf("log list returns to log %#x after %d logs", p, len(w.seen))
	}
	l.addr = p
	if err := l.setLayout(dev, dev.Load64(p+logMeta)); err != nil {
		return l, false, fmt.Errorf("log %#x: corrupt header: %w", p, err)
	}
	if end := p + l.slotOff(NumSlots); end > size {
		return l, false, fmt.Errorf("log %#x: runs to %#x, past the device's %d bytes", p, end, size)
	}
	w.seen = append(w.seen, p)
	return l, true, nil
}
