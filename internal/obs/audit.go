package obs

import (
	"fmt"
	"strings"
)

// The recovery audit trail: a structured record of what a recovery pass
// actually did to each persistent thread log — which locks it re-acquired
// through the indirect holders, which region it resumed at which
// recovery_pc, and how many logged words it restored. cmd/idorecover
// prints it; tests assert on it; it is the post-crash counterpart of the
// execution-time event timeline.

// Thread-audit actions.
const (
	// AuditIdle: the log showed no interrupted FASE and nothing to do.
	AuditIdle = "idle"
	// AuditScrubbed: recovery_pc == 0 with live lock slots — the thread
	// was in a read-only prefix (a FASE that had not stored yet has
	// nothing to resume) or robbed (§III-B); the slots were cleared.
	AuditScrubbed = "scrubbed"
	// AuditResumed: an interrupted FASE was completed by resumption.
	AuditResumed = "resumed"
	// AuditReplayed: a logged store was re-performed before resumption
	// (JUSTDO store-granularity recovery).
	AuditReplayed = "replayed"
	// AuditRolledBack: the thread's incomplete FASEs were undone by log
	// replay (UNDO/REDO baselines).
	AuditRolledBack = "rolled-back"
)

// ThreadAudit is the audit record for one persistent thread log.
type ThreadAudit struct {
	ThreadID   int
	LogAddr    uint64
	Action     string
	RecoveryPC uint64   // raw persisted recovery_pc word (packed form)
	RegionID   uint64   // region resumed, 0 if none
	Locks      []uint64 // indirect holder addresses re-acquired
	// WordsRestored counts 8-byte words recovery restored on behalf of
	// this thread: replayed boundary pairs (plus the base-image slots
	// once a FASE compacted) for resumption systems, undone/redone store
	// targets for log-replay systems.
	WordsRestored int
}

// RecoveryAudit is the full audit trail of one recovery pass.
type RecoveryAudit struct {
	Runtime string
	// Attempt is this pass's recovery-attempt index (0 for the first
	// pass over its device, nvm.Device.EnterRecovery). Under the chaos
	// harness each nested crash-during-recovery bumps it, so a failing
	// schedule's audit trail shows which nesting level did what.
	Attempt int
	Threads []ThreadAudit
}

// Add appends one thread record.
func (a *RecoveryAudit) Add(t ThreadAudit) { a.Threads = append(a.Threads, t) }

// Resumed counts threads whose interrupted FASE was completed by
// resumption.
func (a *RecoveryAudit) Resumed() int {
	n := 0
	for _, t := range a.Threads {
		if t.Action == AuditResumed || t.Action == AuditReplayed {
			n++
		}
	}
	return n
}

// LocksReacquired counts lock re-acquisitions across all threads.
func (a *RecoveryAudit) LocksReacquired() int {
	n := 0
	for _, t := range a.Threads {
		n += len(t.Locks)
	}
	return n
}

// WordsRestored sums restored words across all threads.
func (a *RecoveryAudit) WordsRestored() int {
	n := 0
	for _, t := range a.Threads {
		n += t.WordsRestored
	}
	return n
}

// String renders the audit as the report idorecover prints.
func (a *RecoveryAudit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery audit (%s, attempt %d): %d thread logs, %d resumed, %d locks re-acquired, %d words restored\n",
		a.Runtime, a.Attempt, len(a.Threads), a.Resumed(), a.LocksReacquired(), a.WordsRestored())
	for _, t := range a.Threads {
		fmt.Fprintf(&b, "  t%d log=%#x: %s", t.ThreadID, t.LogAddr, t.Action)
		if t.RegionID != 0 {
			fmt.Fprintf(&b, " region=%#x (recovery_pc %#x)", t.RegionID, t.RecoveryPC)
		} else if t.RecoveryPC != 0 {
			fmt.Fprintf(&b, " (recovery_pc %#x)", t.RecoveryPC)
		}
		if len(t.Locks) > 0 {
			fmt.Fprintf(&b, ", locks re-acquired %#x", t.Locks)
		}
		if t.WordsRestored > 0 {
			fmt.Fprintf(&b, ", %d words restored", t.WordsRestored)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
