package nvm

import "sync/atomic"

// Group commit by drain sharing.
//
// Persist fences serialize at the memory controller: a drain holds the
// device-global fence token while it spins FenceNS, so N threads that
// fence at once pay N back-to-back drains. But a drain persists every
// write-back issued before it began, whoever issued it — so a committer
// whose write-backs precede the start of another thread's drain does
// not need one of its own.
//
// # Protocol
//
// Two monotonic counters sit beside the token: started (drains begun)
// and done (index of the latest drain completed). Only the token holder
// writes either. A fence, having issued its own write-backs, snapshots
// a := started and then spins until either
//
//   - done > a: a drain numbered above a has completed. It was counted
//     into started after the snapshot, so it began after this thread's
//     write-backs — the fence is covered and returns (counted Combined);
//   - or it wins the token (test-and-test-and-set), re-checks the above,
//     bumps started, spins FenceNS, publishes done and releases the
//     token.
//
// Drain a itself never covers the fence: it may have begun before the
// write-backs were issued. Nobody performs another thread's flushes,
// waits for stragglers, or parks: a waiter's worst case is one drain
// already in flight plus one it or a peer performs. The spin is
// crash-aware like lockLine (dies once an injected crash fired, yields
// periodically so a single-P schedule reaches the token holder).
//
// # Crash consistency
//
// There is no new state and no new crash point. The counters and the
// token are volatile; a fence returns only after a drain that began
// after its write-backs, which is the direct path's guarantee with the
// drain performed by someone else. A lone committer finds the token
// free, is never covered, and issues exactly the direct path's events
// and crash ticks. The token holder only spins, so it cannot die
// holding the token; waiters that die hold nothing. Crash frees the
// token and leaves the counters monotonic.

// GroupCommitConfig selects drain sharing on a device.
type GroupCommitConfig struct {
	// Enabled lets Fence return on another thread's drain. When false every fence drains itself.
	Enabled bool

	// WindowNS is obsolete: there is no leader and no batch window. The
	// field is retained so old configurations keep compiling; its value
	// is ignored.
	WindowNS int
}

// fenceState is the device's fence serialization point, on its own
// cache line: waiters poll tok and done together.
type fenceState struct {
	_        [64]byte
	tok      atomic.Uint32 // 1 while a drain is in progress
	started  atomic.Uint64 // drains begun
	done     atomic.Uint64 // latest drain completed (== started when idle)
	solo     atomic.Uint64 // drains that found the token free on arrival
	combined atomic.Uint64 // fences covered by another thread's drain
	_        [24]byte
}

// GCStats is a cumulative snapshot of drain-sharing activity. The
// counters are host-side observability, not simulated state: they
// survive Crash and ResetStats.
type GCStats struct {
	Epochs      uint64 // drains performed (what Stats.Fences counts)
	Solo        uint64 // drains that found the token free on arrival: nobody to share with
	Combined    uint64 // fences covered by another thread's drain
	ServedFASEs uint64 // fences completed, Epochs + Combined; per Epoch it is the amortization factor
	DwellRounds uint64 // always 0: nothing dwells
}

// GroupCommitStats reports cumulative drain-sharing activity; all-zero
// when sharing is disabled. Safe to call concurrently with fences.
func (d *Device) GroupCommitStats() GCStats {
	if !d.cfg.GroupCommit.Enabled {
		return GCStats{}
	}
	f := &d.fence
	s := GCStats{Epochs: f.done.Load(), Solo: f.solo.Load(), Combined: f.combined.Load()}
	s.ServedFASEs = s.Epochs + s.Combined
	return s
}
