package nvm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Commit tickets expose the device's fence timeline to readers that
// bypass the FASE machinery (the server's lock-free read fast lane).
//
// Every fence drain bumps fenceSeq after it completes; a fence covered
// by another thread's drain (groupcommit.go) bumps nothing, the drain
// that covered it did. A reader that snapshots CommitTicket *before*
// observing shard state therefore knows: once fenceSeq advances past that
// snapshot, at least one full fence has drained since the observation,
// so any data that was merely written (not yet fenced) at snapshot
// time is now either durable or the write's FASE has moved on.
//
// The fast lane uses this to preserve durability-before-ack without
// fencing on reads: a GET that raced an in-flight write FASE (seqlock
// validation failed) parks on WaitTicket instead of spinning, waking
// when the write's commit fence lands, when its cancel word changes
// (the shard's seqlock went even again), or when a crash fires.

// ticketing holds the waiter bookkeeping. It lives in its own struct so
// Device's hot-path fields stay on their existing cache lines.
type ticketing struct {
	// fenceSeq counts completed fence drains. Monotonic except across
	// Crash, which bumps it once more so pre-crash waiters never miss
	// a wake (tickets are liveness hints, not durability proofs across
	// a crash — recovery re-establishes durable state).
	fenceSeq atomic.Uint64

	// waiters counts goroutines parked (or about to park) in
	// WaitTicket. Fence only takes the mutex to broadcast when this is
	// nonzero, keeping the uncontended fence path lock-free.
	waiters atomic.Int32

	mu   sync.Mutex
	cond *sync.Cond
}

func (tk *ticketing) init() { tk.cond = sync.NewCond(&tk.mu) }

// bump advances the fence sequence and wakes any parked waiters. Called
// by Fence after its drain, and by Crash so parked readers die with the
// crash instead of hanging.
func (tk *ticketing) bump() {
	tk.fenceSeq.Add(1)
	if tk.waiters.Load() > 0 {
		tk.mu.Lock()
		tk.cond.Broadcast()
		tk.mu.Unlock()
	}
}

// CommitTicket returns the current fence sequence number. A later
// WaitTicket(t+1, ...) blocks until at least one full fence has drained
// after this call.
func (d *Device) CommitTicket() uint64 { return d.tick.fenceSeq.Load() }

// WaitTicket blocks until the fence sequence reaches t, until cancel
// (if non-nil) no longer holds was, or until an injected crash fires —
// in which case it panics CrashSignal like every other device
// operation, so a parked reader unwinds through the same recovery path
// as an executing one.
//
// The wait spins briefly first (fences are short) and then parks on a
// condvar that Fence broadcasts. cancel lets a waiter whose wake
// condition is not a future fence — e.g. a seqlock that goes even in
// the window between a FASE's final fence and its epoch bump — bail
// out; the canceller must call WakeTicketWaiters after changing the
// word.
func (d *Device) WaitTicket(t uint64, cancel *atomic.Uint64, was uint64) {
	tk := &d.tick
	done := func() bool {
		return tk.fenceSeq.Load() >= t ||
			(cancel != nil && cancel.Load() != was) ||
			d.anyCrashFired()
	}
	for i := 0; i < 256; i++ {
		if done() {
			goto out
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	tk.waiters.Add(1)
	tk.mu.Lock()
	for !done() {
		tk.cond.Wait()
	}
	tk.mu.Unlock()
	tk.waiters.Add(-1)
out:
	if d.anyCrashFired() {
		panic(CrashSignal{})
	}
}

// WakeTicketWaiters wakes every goroutine parked in WaitTicket so it
// can re-check its predicate. Cheap when nobody is parked (one atomic
// load). Callers that change a WaitTicket cancel word, and shutdown
// paths that need parked readers to notice closed state, must call
// this.
func (d *Device) WakeTicketWaiters() {
	tk := &d.tick
	if tk.waiters.Load() > 0 {
		tk.mu.Lock()
		tk.cond.Broadcast()
		tk.mu.Unlock()
	}
}
