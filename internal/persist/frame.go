package persist

import (
	"fmt"
	"sync"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/region"
)

// Threads is the registry every runtime keeps of its threads: it numbers
// them, sums their counters, and holds the spares — what the runtime's
// last successful Recover walked, for NewThread to hand out before it
// creates a log. That keeps the log list, and so the next walk, as long as
// the most threads one incarnation ran at once, not growing by a log per
// thread per restart. A spare is a T: the thread a walk adopted (core and
// the VM, which open each log as they walk it) or a log's address (a
// Frame). The mutex serialises thread creation, which links a log onto the
// region's list (region.Link); take it with a deferred unlock, as a device
// call under it can panic with nvm.CrashSignal.
type Threads[T any] struct {
	sync.Mutex
	stats  []*RuntimeStats
	next   int
	idle   []T  // in list order: Take pops from the end, the oldest log
	handed bool // the runtime has handed out a thread
}

// Next is the id of the next new thread. Call with the mutex held.
func (r *Threads[T]) Next() int { return r.next }

// Add registers the counters of thread id, a new thread's or one a
// recovery adopted; Next moves past id. Call with the mutex held.
func (r *Threads[T]) Add(id int, s *RuntimeStats) {
	r.stats = append(r.stats, s)
	r.next = max(r.next, id+1)
}

// Take pops the spare with the oldest log, reporting false when none is
// left, and records that the runtime is handing out a thread. Call with
// the mutex held.
func (r *Threads[T]) Take() (spare T, ok bool) {
	r.handed = true
	n := len(r.idle)
	if n == 0 {
		return spare, false
	}
	spare = r.idle[n-1]
	r.idle = r.idle[:n-1]
	return spare, true
}

// Recovering is every list-walking Recover's guard: it fails once the
// runtime has handed out a thread, whose log the walk would take from
// under it.
func (r *Threads[T]) Recovering(name string) error {
	r.Lock()
	defer r.Unlock()
	if r.handed {
		return fmt.Errorf("%s: Recover after NewThread: recovery must come before the runtime's first thread", name)
	}
	return nil
}

// Keep makes spares, in list order, the spares: what a successful Recover
// walked that its runtime's NewThread can hand out.
func (r *Threads[T]) Keep(spares []T) {
	r.Lock()
	defer r.Unlock()
	r.idle = append(r.idle[:0], spares...)
}

// Stats sums the counters of every thread added. Call only while the
// threads are quiescent.
func (r *Threads[T]) Stats() RuntimeStats {
	r.Lock()
	defer r.Unlock()
	var out RuntimeStats
	for _, s := range r.stats {
		out.Add(s)
	}
	return out
}

// Logs describes a runtime's per-thread logs to its Frame: blocks of Size
// bytes aligned to Align (a cache line, or a page), each opening with a
// one-line header, linked into the list at root slot Root through the
// header word Next bytes in. Root 0 is iDO's slot, which idolog links: a
// runtime that leaves it keeps no list (JUSTDO). A runtime that leaves
// Size 0 keeps no logs (origin), and its threads get no trace ring.
type Logs struct {
	Size, Align uint64
	Root        int
	Next        uint64
}

// Frame is what a baseline runtime is besides its mechanism: the region
// it is bound to, its name, its thread registry with the spare logs, the
// creation of a thread's log, and the walk of the log list at recovery.
// The runtime embeds it, which gives it Runtime's Name, Attach and Stats;
// its threads embed ThreadFrame.
type Frame struct {
	Reg *region.Region

	name    string
	logs    Logs
	threads Threads[uint64] // a spare is a log's address
	walked  []uint64        // the logs the recovery under way has walked
}

// NewFrame returns the frame of the runtime called name.
func NewFrame(name string, logs Logs) Frame { return Frame{name: name, logs: logs} }

// Name implements Runtime.
func (f *Frame) Name() string { return f.name }

// Attach implements Runtime. No baseline's mechanism takes locks through
// the lock manager, so the frame keeps only the region.
func (f *Frame) Attach(reg *region.Region, _ *locks.Manager) error {
	f.Reg = reg
	return nil
}

// Stats implements Runtime.
func (f *Frame) Stats() RuntimeStats { return f.threads.Stats() }

// Block allocates n bytes of log aligned to align, a power of two.
func (f *Frame) Block(n, align uint64) (uint64, error) {
	raw, err := f.Reg.Alloc.Alloc(int(n + align))
	if err != nil {
		return 0, fmt.Errorf("%s: allocating a log: %w", f.name, err)
	}
	return (raw + align - 1) &^ (align - 1), nil
}

// NewThread gives t, a new thread of the runtime, its id, log and trace
// ring, and registers its counters. The log is the oldest spare when the
// last Recover left one (reused is true, and nothing is written);
// otherwise a new block, whose header init stores — given the block and
// the thread's id — before Link writes back the header's line and makes
// it the list's head.
func (f *Frame) NewThread(t *ThreadFrame, init func(log uint64, id int) error) (reused bool, err error) {
	f.threads.Lock()
	defer f.threads.Unlock()
	t.id = f.threads.Next()
	t.Log, reused = f.threads.Take()
	if !reused && f.logs.Size > 0 {
		if t.Log, err = f.Block(f.logs.Size, f.logs.Align); err != nil {
			return false, err
		}
		if err := init(t.Log, t.id); err != nil {
			return false, err
		}
		if f.logs.Root != 0 {
			f.Reg.Link(f.logs.Root, t.Log, f.logs.Next, nvm.LineSize)
		}
	}
	if tr := f.Reg.Dev.Tracer(); tr != nil && f.logs.Size > 0 {
		t.Ring = tr.ThreadRing(fmt.Sprintf("%s/t%d", f.name, t.id))
	}
	f.threads.Add(t.id, &t.Stats)
	return reused, nil
}

// Recover is the recovery of a runtime that keeps a log list, once no
// thread is out: Recover's bracket around the walk of the list, in list
// order, where each log gets an audit entry — numbered by its scan
// position, idle until the runtime's each says otherwise — then each, the
// runtime's action on it. The scan phase ends with the walk; after, when
// set, is the runtime's work over every log at once. When the pass
// succeeds the logs it walked are the spares NewThread hands out.
func (f *Frame) Recover(each func(p *Pass, log uint64, a *obs.ThreadAudit) error, after func(p *Pass) error) (RecoveryStats, error) {
	if err := f.threads.Recovering(f.name); err != nil {
		return RecoveryStats{}, err
	}
	f.walked = f.walked[:0]
	st, err := Recover(f.Reg, f.name, func(p *Pass) error {
		for log, err := range f.Reg.List(f.logs.Root, f.logs.Next, f.logs.Size) {
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			f.walked = append(f.walked, log)
			p.Audit.Add(obs.ThreadAudit{ThreadID: p.Threads, LogAddr: log, Action: obs.AuditIdle})
			p.Threads++
			if err := each(p, log, &p.Audit.Threads[len(p.Audit.Threads)-1]); err != nil {
				return err
			}
		}
		p.Scanned()
		if after == nil {
			return nil
		}
		return after(p)
	})
	if err == nil {
		f.threads.Keep(f.walked)
	}
	return st, err
}

// CheckEntry is recovery's check of entry i of log before it applies n
// bytes at the address addr the entry names: addr must be a multiple of
// align and the bytes inside the device (region.Check). A region image can
// come from outside the program, so an entry is trusted no further than
// its log link.
func (f *Frame) CheckEntry(log uint64, i int, addr, n, align uint64) error {
	if err := f.Reg.Check(addr, n, align); err != nil {
		return fmt.Errorf("%s: log %#x entry %d: %w", f.name, log, i, err)
	}
	return nil
}

// ThreadFrame is the half of a Frame each of its runtime's threads embeds:
// the thread's id, log, trace ring and counters, and the FASE nesting
// bracket. Its methods are Thread's ID, Exec and Boundary for a runtime
// that neither retries nor logs registers, and the four FASE verbs for
// one with nothing of its own to do at them. A runtime with work at a
// FASE's end shadows the verb: it does the work when Outermost, then
// calls the frame's.
type ThreadFrame struct {
	Log   uint64    // the thread's log; 0 when the runtime keeps none
	Ring  *obs.Ring // name/t<id>; nil when tracing is off or the runtime keeps no log
	Depth int       // FASE nesting: locks held plus open durable sections
	Stats RuntimeStats

	id       int
	t0       int64  // tracer clock at the outermost FASE's entry
	logBytes uint64 // log payload written in the current FASE
}

// ID implements Thread.
func (t *ThreadFrame) ID() int { return t.id }

// Exec implements Thread: the operation runs once.
func (t *ThreadFrame) Exec(op func()) { op() }

// Boundary implements Thread: the runtime logs no registers.
func (t *ThreadFrame) Boundary(uint64, ...RegVal) {}

// Open enters a FASE level; entering the outermost starts the FASE's
// trace clock and its log-byte count.
func (t *ThreadFrame) Open() {
	if t.Depth == 0 {
		t.t0, t.logBytes = t.Ring.Clock(), 0
	}
	t.Depth++
}

// Outermost reports whether closing the current level ends the FASE.
func (t *ThreadFrame) Outermost() bool { return t.Depth == 1 }

// Close leaves a FASE level; leaving the outermost counts the FASE and
// traces its span and log bytes.
func (t *ThreadFrame) Close() {
	if t.Depth == 1 {
		t.Stats.FASEs++
		if t.Ring != nil {
			t.Ring.Span(obs.KFASE, t.logBytes, 0, t.t0)
			t.Ring.Observe(obs.HLogBytesPerFASE, t.logBytes)
		}
	}
	t.Depth--
}

// Append counts a log record of the given payload bytes and traces it
// with arg.
func (t *ThreadFrame) Append(bytes, arg uint64) {
	t.Stats.LoggedEntries++
	t.Stats.LoggedBytes += bytes
	t.logBytes += bytes
	t.Ring.Emit(obs.KLogAppend, bytes, arg)
}

// Lock implements Thread: it acquires l and enters a FASE level.
func (t *ThreadFrame) Lock(l *locks.Lock) {
	l.Acquire()
	t.Open()
	t.Ring.Emit(obs.KLockAcq, l.Holder(), 0)
}

// Unlock implements Thread: it leaves a FASE level and releases l.
func (t *ThreadFrame) Unlock(l *locks.Lock) {
	t.Close()
	t.Ring.Emit(obs.KLockRel, l.Holder(), 0)
	l.Release()
}

// BeginDurable implements Thread.
func (t *ThreadFrame) BeginDurable() { t.Open() }

// EndDurable implements Thread.
func (t *ThreadFrame) EndDurable() { t.Close() }
