package nvm

import "sync/atomic"

// Crash injection for native (non-VM) code: the device counts memory
// events and, when an armed budget is exhausted, panics with CrashSignal
// in whichever goroutine issued the event — and in every other goroutine
// at its next device access. This is the simulation's SIGKILL: all
// threads die, volatile state is abandoned, and the test then calls
// Crash() to settle the persistence domain and reattaches.

// CrashSignal is the panic payload of an injected crash. Harness code
// recovers it and treats the goroutine as dead.
type CrashSignal struct{}

// Budget scopes: an all-events budget burns down on every device event;
// a recovery-scoped budget burns down only while at least one Recover
// pass is live (between EnterRecovery and ExitRecovery), so the chaos
// harness can target "the Nth persist event of the recovery path"
// without counting the forward events that precede it.
const (
	scopeAll      = 0
	scopeRecovery = 1
)

var (
	injectArmed  atomic.Bool
	injectFired  atomic.Bool
	injectBudget atomic.Int64
	injectScope  atomic.Int32
	// recoveryDepth counts live Recover passes; recoveryPasses counts
	// EnterRecovery calls since the last reset (the chaos "attempt"
	// index, reported per nesting level in RecoveryAudit).
	recoveryDepth  atomic.Int64
	recoveryPasses atomic.Int64
)

// ArmCrash arms global crash injection with a budget of n device events;
// a negative n disarms and clears the fired state. Injection state is
// process-global (a crash kills every device user), which mirrors power
// failure and keeps the hot paths to a single atomic load.
func ArmCrash(n int64) {
	if n < 0 {
		injectArmed.Store(false)
		injectFired.Store(false)
		injectScope.Store(scopeAll)
		return
	}
	injectFired.Store(false)
	injectScope.Store(scopeAll)
	injectBudget.Store(n)
	injectArmed.Store(true)
}

// ArmRecoveryCrash arms a recovery-scoped budget: the crash fires at the
// n-th device event issued while a Recover pass is live. Events outside
// recovery do not consume the budget. A negative n disarms (same as
// ArmCrash(-1)).
func ArmRecoveryCrash(n int64) {
	if n < 0 {
		ArmCrash(-1)
		return
	}
	injectFired.Store(false)
	injectScope.Store(scopeRecovery)
	injectBudget.Store(n)
	injectArmed.Store(true)
}

// RecoveryCrashArmed reports whether a live recovery-scoped budget is
// armed. Recover implementations consult this to switch to their
// deterministic serial restore path, so the n-th recovery event is the
// same event on every replay.
func RecoveryCrashArmed() bool {
	return injectArmed.Load() && !injectFired.Load() && injectScope.Load() == scopeRecovery
}

// EnterRecovery marks the calling goroutine's Recover pass live and
// returns its attempt index (0 for the first pass since the last
// ResetRecoveryPasses). Every Recover implementation brackets itself
// with EnterRecovery/ExitRecovery so recovery-scoped budgets count its
// events.
func EnterRecovery() int {
	recoveryDepth.Add(1)
	return int(recoveryPasses.Add(1)) - 1
}

// ExitRecovery unmarks a live Recover pass. Call via defer so a
// mid-recovery CrashSignal still restores the depth.
func ExitRecovery() { recoveryDepth.Add(-1) }

// ResetRecoveryPasses zeroes the attempt counter (between chaos
// schedules).
func ResetRecoveryPasses() { recoveryPasses.Store(0) }

// RecoveryPasses returns the number of Recover passes begun since the
// last reset.
func RecoveryPasses() int { return int(recoveryPasses.Load()) }

// CrashBudgetRemaining returns the armed budget's remaining event count.
// The chaos sweep probes a path's event total by arming a huge budget,
// running the path, and reading total - remaining.
func CrashBudgetRemaining() int64 { return injectBudget.Load() }

// CrashArmed reports whether injection is armed.
func CrashArmed() bool { return injectArmed.Load() }

// TriggerCrash fires the injected crash immediately (injection must be
// armed). Use this for timed kills: arm with a huge budget BEFORE
// launching workers — so lock waiters take the crash-aware spin path —
// then trigger at the kill time. Every goroutine dies at its next device
// access or lock-spin check.
func TriggerCrash() {
	if !injectArmed.Load() {
		panic("nvm: TriggerCrash while disarmed")
	}
	injectFired.Store(true)
}

// CrashFired reports whether the injected crash has gone off.
func CrashFired() bool { return injectFired.Load() }

// tickCrash consumes one event and panics when the budget is spent. A
// fired crash kills every goroutine at its next event regardless of
// scope; an unfired recovery-scoped budget only burns down while a
// Recover pass is live.
func tickCrash() {
	if !injectArmed.Load() {
		return
	}
	if injectFired.Load() {
		panic(CrashSignal{})
	}
	if injectScope.Load() == scopeRecovery && recoveryDepth.Load() == 0 {
		return
	}
	if injectBudget.Add(-1) < 0 {
		injectFired.Store(true)
		panic(CrashSignal{})
	}
}
