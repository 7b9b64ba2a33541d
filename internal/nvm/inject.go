package nvm

import "sync/atomic"

// Crash injection: a device counts its memory events and, when an armed
// budget is exhausted, panics with CrashSignal in whichever goroutine
// issued the event — and in every other goroutine at its next access to
// the device or crash-aware spin on it (a line lock or a locks.Lock of
// a manager over the device). This is the simulation's
// power failure of one persistence domain: every user of the device
// dies, volatile state is abandoned, and the harness then calls Crash to
// settle the domain and reattaches. The budget belongs to the device, so
// a process that hosts two domains (a primary and a hot standby) or runs
// two crash schedules at once kills only the users of the armed one.

// CrashSignal is the panic payload of an injected crash. Harness code
// recovers it and treats the goroutine as dead.
type CrashSignal struct{}

// Budget scopes: an all-events budget burns down on every device event;
// a recovery-scoped budget burns down only while at least one Recover
// pass over the device is live (between EnterRecovery and ExitRecovery),
// so the chaos harness can target "the Nth persist event of the recovery
// path" without counting the forward events that precede it.
const (
	scopeAll      = 0
	scopeRecovery = 1
)

type inject struct {
	armed  atomic.Bool
	fired  atomic.Bool
	budget atomic.Int64
	scope  atomic.Int32
	// depth counts live Recover passes; passes counts EnterRecovery
	// calls over the device's lifetime (the chaos "attempt" index,
	// reported per nesting level in RecoveryAudit).
	depth  atomic.Int64
	passes atomic.Int64
}

func (d *Device) arm(n int64, scope int32) {
	if n < 0 {
		d.inj.armed.Store(false)
		d.inj.fired.Store(false)
		d.inj.scope.Store(scopeAll)
		return
	}
	d.inj.fired.Store(false)
	d.inj.scope.Store(scope)
	d.inj.budget.Store(n)
	d.inj.armed.Store(true)
}

// ArmLocalCrash arms crash injection on this device with a budget of n
// device events; a negative n disarms (either scope) and clears the
// fired state. Arm before launching workers so lock waiters take the
// crash-aware spin. Crash disarms the device, like a rebooted machine.
func (d *Device) ArmLocalCrash(n int64) { d.arm(n, scopeAll) }

// ArmRecoveryCrash arms a recovery-scoped budget: the crash fires at the
// n-th device event issued while a Recover pass is live. Events outside
// recovery do not consume the budget. A negative n disarms.
func (d *Device) ArmRecoveryCrash(n int64) { d.arm(n, scopeRecovery) }

// EnterRecovery marks a Recover pass over the device live and returns
// its attempt index (0 for the device's first pass). Every Recover
// implementation brackets itself with EnterRecovery/ExitRecovery so
// recovery-scoped budgets count its events.
func (d *Device) EnterRecovery() int {
	d.inj.depth.Add(1)
	return int(d.inj.passes.Add(1)) - 1
}

// ExitRecovery unmarks a live Recover pass. Call via defer so a
// mid-recovery CrashSignal still restores the depth.
func (d *Device) ExitRecovery() { d.inj.depth.Add(-1) }

// RecoveryPasses returns the number of Recover passes begun on the
// device.
func (d *Device) RecoveryPasses() int { return int(d.inj.passes.Load()) }

// TriggerLocalCrash fires this device's injected crash immediately
// (injection must be armed): the timed kill. Every goroutine using the
// device dies at its next event or crash-aware spin check.
func (d *Device) TriggerLocalCrash() {
	if !d.inj.armed.Load() {
		panic("nvm: TriggerLocalCrash while disarmed")
	}
	d.inj.fired.Store(true)
}

// LocalCrashArmed reports whether injection is armed on this device.
func (d *Device) LocalCrashArmed() bool { return d.inj.armed.Load() }

// LocalCrashFired reports whether this device's injected crash has gone
// off.
func (d *Device) LocalCrashFired() bool { return d.inj.fired.Load() }

// LocalCrashBudgetRemaining returns the armed budget's remaining event
// count. Probing a path's event total: arm a huge budget, run the path,
// and read total - remaining.
func (d *Device) LocalCrashBudgetRemaining() int64 { return d.inj.budget.Load() }

// crashTick is the per-event injection hook on every device operation.
// It consumes one event and panics when the budget is spent. A fired
// crash kills every goroutine at its next event regardless of scope; an
// unfired recovery-scoped budget only burns down while a Recover pass is
// live.
func (d *Device) crashTick() {
	if !d.inj.armed.Load() {
		return
	}
	if d.inj.fired.Load() {
		panic(CrashSignal{})
	}
	if d.inj.scope.Load() == scopeRecovery && d.inj.depth.Load() == 0 {
		return
	}
	if d.inj.budget.Add(-1) < 0 {
		d.inj.fired.Store(true)
		panic(CrashSignal{})
	}
}
