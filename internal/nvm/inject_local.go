package nvm

import "sync/atomic"

// Device-scoped crash injection. The global ArmCrash models power
// failure: one budget, every device user dies. A process that hosts
// *two* persistence domains — the replication tests run a primary and a
// hot-standby device in one binary — needs to kill only one machine's
// users while the other keeps serving, which a process-global flag
// cannot express. ArmLocalCrash scopes the same budget/fire/panic
// discipline to a single Device: every event hook checks the global
// state first (power failure still kills everyone) and then this
// device's local state.
//
// Local injection supports only the all-events scope; recovery-scoped
// budgets (ArmRecoveryCrash) stay global because the chaos harness that
// uses them is single-device.

type localInject struct {
	armed  atomic.Bool
	fired  atomic.Bool
	budget atomic.Int64
}

// ArmLocalCrash arms crash injection scoped to this device with a
// budget of n device events; a negative n disarms and clears the fired
// state. Goroutines touching other devices are unaffected.
func (d *Device) ArmLocalCrash(n int64) {
	if n < 0 {
		d.linj.armed.Store(false)
		d.linj.fired.Store(false)
		return
	}
	d.linj.fired.Store(false)
	d.linj.budget.Store(n)
	d.linj.armed.Store(true)
}

// TriggerLocalCrash fires this device's injected crash immediately
// (local injection must be armed). As with TriggerCrash, arm with a
// huge budget before launching workers so spin sites take the
// crash-aware path, then trigger at the kill time.
func (d *Device) TriggerLocalCrash() {
	if !d.linj.armed.Load() {
		panic("nvm: TriggerLocalCrash while disarmed")
	}
	d.linj.fired.Store(true)
}

// LocalCrashArmed reports whether device-local injection is armed.
func (d *Device) LocalCrashArmed() bool { return d.linj.armed.Load() }

// LocalCrashFired reports whether this device's local crash has gone
// off.
func (d *Device) LocalCrashFired() bool { return d.linj.fired.Load() }

// LocalCrashBudgetRemaining returns the local budget's remaining event
// count.
func (d *Device) LocalCrashBudgetRemaining() int64 { return d.linj.budget.Load() }

// crashTick is the per-event injection hook on every device operation:
// the global budget burns first (power failure kills every device),
// then this device's local budget.
func (d *Device) crashTick() {
	tickCrash()
	if !d.linj.armed.Load() {
		return
	}
	if d.linj.fired.Load() {
		panic(CrashSignal{})
	}
	if d.linj.budget.Add(-1) < 0 {
		d.linj.fired.Store(true)
		panic(CrashSignal{})
	}
}

// anyCrashFired reports whether a global or device-local injected crash
// has gone off — the predicate every crash-aware spin site on this
// device checks before waiting further.
func (d *Device) anyCrashFired() bool {
	return (injectArmed.Load() && injectFired.Load()) ||
		(d.linj.armed.Load() && d.linj.fired.Load())
}
