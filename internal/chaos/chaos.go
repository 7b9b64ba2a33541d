// Package chaos drives deterministic, replayable crash schedules across
// every persistence runtime. A schedule crashes the forward workload at
// its Nth injectable device event, then crashes each nested recovery
// pass at the Mth event of that pass (nesting depth ≤ 3: crash the
// recovery of the recovery), re-settles the device under the schedule's
// adversary, and finally runs one clean recovery. The surviving state is
// verified three ways, plus workload invariants and lock-table freedom:
//
//  1. Convergence: the final state must equal a reference run that
//     settles the same forward crash under the same adversary and seed
//     but recovers once, cleanly — nested recovery crashes must be
//     invisible.
//  2. CrashPersistAll oracle, exact: for recovery-via-resumption
//     runtimes (iDO native and VM, and the baselines whose commit point
//     is a single unambiguous durable store) the outcome must also match
//     the same crash settled under nvm.CrashPersistAll, the adversary
//     under which nothing in flight is lost. This is §III-C's claim that
//     the adversary cannot change what recovery reconstructs.
//  3. CrashPersistAll oracle, bounded: the UNDO baselines (Atlas, NVML)
//     truncate their logs through the volatile cache, so a crash landing
//     between a FASE's data fence and its truncation fence is genuinely
//     ambiguous — persist-all resolves it as committed, discard as
//     rolled back, and both are linearizable. For them each observable
//     may trail the persist-all oracle by at most the one in-flight
//     FASE.
//
// A Schedule is the single replayable tuple. Its String form round-trips
// through ParseSchedule and is accepted by `idorecover -chaos -replay`,
// so any failure a sweep prints can be reproduced in isolation.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/vm"
)

// MaxDepth is the deepest supported recovery nesting: a schedule may
// crash the first recovery, the recovery of that recovery, and the
// recovery of *that* recovery before the final clean pass.
const MaxDepth = 3

// Schedule is a fully deterministic crash scenario: which runtime and
// workload to run, which adversary settles the device at every crash,
// the forward crash point, and the crash point of each nested recovery
// pass. Seed feeds both the nvm.CrashRandom settles and any randomness
// the workload wants; two runs of the same Schedule observe identical
// event sequences.
type Schedule struct {
	Runtime  string
	Workload string
	Mode     nvm.CrashMode
	Seed     int64
	Forward  int64   // crash after this many forward device events (≥ 1)
	Recovery []int64 // per nesting level: crash after this many recovery events
}

// String renders the single replayable tuple, e.g.
// "ido:counter:random:7:12:3,5".
func (s Schedule) String() string {
	rec := "-"
	if len(s.Recovery) > 0 {
		parts := make([]string, len(s.Recovery))
		for i, r := range s.Recovery {
			parts[i] = strconv.FormatInt(r, 10)
		}
		rec = strings.Join(parts, ",")
	}
	return fmt.Sprintf("%s:%s:%s:%d:%d:%s",
		s.Runtime, s.Workload, ModeName(s.Mode), s.Seed, s.Forward, rec)
}

// ModeName is the canonical flag spelling of a crash adversary, shared
// with idorecover's -mode flag.
func ModeName(m nvm.CrashMode) string {
	switch m {
	case nvm.CrashDiscard:
		return "discard"
	case nvm.CrashRandom:
		return "random"
	case nvm.CrashPersistAll:
		return "persist-all"
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// ParseMode inverts ModeName.
func ParseMode(s string) (nvm.CrashMode, error) {
	switch s {
	case "discard":
		return nvm.CrashDiscard, nil
	case "random":
		return nvm.CrashRandom, nil
	case "persist-all":
		return nvm.CrashPersistAll, nil
	}
	return 0, fmt.Errorf("chaos: unknown crash mode %q (want discard|random|persist-all)", s)
}

// ParseSchedule inverts Schedule.String.
func ParseSchedule(s string) (Schedule, error) {
	f := strings.Split(s, ":")
	if len(f) != 6 {
		return Schedule{}, fmt.Errorf("chaos: schedule %q: want 6 colon-separated fields, got %d", s, len(f))
	}
	mode, err := ParseMode(f[2])
	if err != nil {
		return Schedule{}, err
	}
	seed, err := strconv.ParseInt(f[3], 10, 64)
	if err != nil {
		return Schedule{}, fmt.Errorf("chaos: schedule %q: seed: %v", s, err)
	}
	fwd, err := strconv.ParseInt(f[4], 10, 64)
	if err != nil {
		return Schedule{}, fmt.Errorf("chaos: schedule %q: forward budget: %v", s, err)
	}
	var rec []int64
	if f[5] != "-" && f[5] != "" {
		for _, p := range strings.Split(f[5], ",") {
			r, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("chaos: schedule %q: recovery budget %q: %v", s, p, err)
			}
			rec = append(rec, r)
		}
	}
	sc := Schedule{Runtime: f[0], Workload: f[1], Mode: mode, Seed: seed, Forward: fwd, Recovery: rec}
	if len(sc.Recovery) > MaxDepth {
		return Schedule{}, fmt.Errorf("chaos: schedule %q: %d recovery budgets exceeds max nesting depth %d", s, len(sc.Recovery), MaxDepth)
	}
	if _, _, err := newDriver(sc); err != nil {
		return Schedule{}, err
	}
	return sc, nil
}

// Attempt records one recovery pass of a schedule run, including the
// passes a nested crash cut short (their audit is lost with the pass;
// the index and budget still attribute the crash point).
type Attempt struct {
	Index   int   // the device's recovery-pass index, 0-based
	Budget  int64 // armed recovery crash budget; -1 for the final clean pass
	Crashed bool  // the armed budget fired inside this pass
	Err     string
	Audit   *obs.RecoveryAudit // nil when the pass crashed
}

// Result is a converged schedule run: the per-nesting-level recovery
// attempts, the final observable state, and the two reference
// observations it was verified against.
type Result struct {
	Schedule Schedule
	Attempts []Attempt
	// Oracle is the convergence reference: same forward crash, same
	// adversary and seed, one clean recovery.
	Oracle map[string]uint64
	// PersistAll is the CrashPersistAll oracle (equals Oracle when the
	// schedule's adversary is persist-all).
	PersistAll map[string]uint64
	Final      map[string]uint64
	// HeapAudited is set for the workloads that audit their heap;
	// LeakedBlocks and LeakedBytes are then the allocated blocks nothing
	// reaches after the final recovery (HeapLeak): at most one block per
	// crash of the schedule.
	HeapAudited  bool
	LeakedBlocks int
	LeakedBytes  uint64
}

// depth is how many of the schedule's injected recovery crashes fired.
func (r *Result) depth() int {
	n := 0
	for _, a := range r.Attempts {
		if a.Crashed {
			n++
		}
	}
	return n
}

// caps declares what a runtime promises under this harness.
type caps struct {
	// recoverErr: Recover refuses by contract (native JUSTDO needs the
	// VM replay); the run verifies that the refusal is returned and
	// skips nested recovery crashes (there is no pass to crash).
	recoverErr bool
	// modes lists the adversaries this runtime's recovery contract
	// covers. Runtimes with no recovery at all (origin) are only
	// meaningful under persist-all, where the settle itself is the
	// oracle's settle.
	modes []nvm.CrashMode
	// exactPA: post-recovery observables are adversary-independent, so
	// the CrashPersistAll oracle must match exactly under every
	// supported mode. False for the UNDO baselines whose cached
	// truncation leaves a genuinely ambiguous commit window (the
	// persist-all oracle then only bounds the outcome).
	exactPA bool
}

func (c caps) supports(m nvm.CrashMode) bool {
	for _, x := range c.modes {
		if x == m {
			return true
		}
	}
	return false
}

var allModes = []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll}

// driver runs one runtime+workload pair through the schedule's phases.
// Crash injection is armed and caught by the harness, never the driver.
type driver interface {
	prepare(seed int64) error
	// dev is the device prepare formatted; reopen settles and reattaches
	// the same device, so its crash budget and recovery-pass count
	// follow the schedule through every phase.
	dev() *nvm.Device
	forward() error
	// reopen settles the device under mode and attaches a fresh runtime,
	// exactly like a restarted process re-mapping the region.
	reopen(mode nvm.CrashMode, rng *rand.Rand) error
	recover() (persist.RecoveryStats, error)
	// observe reads the workload's observables from the device image.
	observe() (map[string]uint64, error)
	// invariants checks structural well-formedness beyond the oracle
	// compare (chain ordering, value ranges, cycle freedom).
	invariants() error
	// locksFree verifies every workload lock is acquirable.
	locksFree() error
}

// heapAuditor is a driver that can name every block its workload still
// reaches after recovery; Run then counts what the schedule's crashes
// leaked.
type heapAuditor interface {
	heap() (reg *region.Region, reach []uint64, err error)
}

// Runtimes lists the runtime names Run accepts, native first.
func Runtimes() []string {
	return []string{
		"ido", "atlas", "mnemosyne", "nvthreads", "nvml", "justdo", "origin",
		"vm-ido", "vm-justdo", "vm-origin",
	}
}

func newDriver(s Schedule) (driver, caps, error) {
	if strings.HasPrefix(s.Runtime, "vm-") {
		return newVMDriver(s)
	}
	return newNativeDriver(s)
}

// catchCrash runs fn, converting an injected nvm.CrashSignal panic (or
// the vm.ErrCrashed a VM call turns it into) into crashed=true. Any other
// panic propagates.
func catchCrash(fn func() error) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.CrashSignal); !ok {
				panic(r)
			}
			crashed = true
			err = nil
		}
	}()
	if err = fn(); errors.Is(err, vm.ErrCrashed) {
		return true, nil
	}
	return false, err
}

// Run executes one schedule end to end and verifies convergence.
// Failures wrap the schedule string so they can be replayed with
// `idorecover -chaos -replay '<schedule>'`.
func Run(s Schedule) (*Result, error) {
	d, c, err := newDriver(s)
	if err != nil {
		return nil, err
	}
	if !c.supports(s.Mode) {
		return nil, fmt.Errorf("chaos: schedule %s: runtime %s has no recovery under the %s adversary (supported: %s)",
			s, s.Runtime, ModeName(s.Mode), modeNames(c.modes))
	}
	if s.Forward < 1 {
		return nil, fmt.Errorf("chaos: schedule %s: forward budget must be ≥ 1", s)
	}
	if len(s.Recovery) > MaxDepth {
		return nil, fmt.Errorf("chaos: schedule %s: nesting depth %d exceeds %d", s, len(s.Recovery), MaxDepth)
	}

	// References: the CrashPersistAll oracle, and (when the schedule's
	// adversary differs) the same-adversary clean-recovery run the chaos
	// run must converge to. Both replay the identical forward crash; the
	// same-adversary reference also replays the identical first settle
	// (same seed, same rng draw sequence).
	oraclePA, err := runOracle(s, c, nvm.CrashPersistAll)
	if err != nil {
		return nil, err
	}
	oracle := oraclePA
	if s.Mode != nvm.CrashPersistAll {
		oracle, err = runOracle(s, c, s.Mode)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Schedule: s, Oracle: oracle, PersistAll: oraclePA}
	if err := d.prepare(s.Seed); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: prepare: %w", s, err)
	}
	dev := d.dev()
	defer dev.ArmLocalCrash(-1)
	dev.ArmLocalCrash(s.Forward)
	crashed, ferr := catchCrash(d.forward)
	dev.ArmLocalCrash(-1)
	if ferr != nil {
		return nil, fmt.Errorf("chaos: schedule %s: forward workload: %w", s, ferr)
	}
	if !crashed {
		return nil, fmt.Errorf("chaos: schedule %s: forward budget %d outlasted the workload; probe ForwardEvents for the bound", s, s.Forward)
	}

	rng := rand.New(rand.NewSource(s.Seed))
	for _, r := range s.Recovery {
		if err := d.reopen(s.Mode, rng); err != nil {
			return nil, fmt.Errorf("chaos: schedule %s: reopen: %w", s, err)
		}
		var st persist.RecoveryStats
		var rerr error
		dev.ArmRecoveryCrash(r)
		crashed, _ := catchCrash(func() error { st, rerr = d.recover(); return nil })
		dev.ArmLocalCrash(-1)
		at := Attempt{Index: dev.RecoveryPasses() - 1, Budget: r, Crashed: crashed}
		if !crashed {
			at.Audit = st.Audit
			if rerr != nil {
				at.Err = rerr.Error()
				if !c.recoverErr {
					return nil, fmt.Errorf("chaos: schedule %s: recovery pass %d (budget %d): %w", s, at.Index, r, rerr)
				}
			} else if c.recoverErr {
				return nil, fmt.Errorf("chaos: schedule %s: runtime %s must refuse recovery, pass %d succeeded", s, s.Runtime, at.Index)
			}
		}
		res.Attempts = append(res.Attempts, at)
		if !crashed {
			// The pass completed: deeper nesting levels have no pass to
			// crash. The budgets were probed against a live pass, so
			// this only happens when recovery legitimately got shorter
			// (e.g. an earlier pass already finished the work).
			break
		}
	}

	// Final clean pass.
	if err := d.reopen(s.Mode, rng); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: final reopen: %w", s, err)
	}
	st, rerr := d.recover()
	at := Attempt{Index: dev.RecoveryPasses() - 1, Budget: -1}
	if rerr != nil {
		at.Err = rerr.Error()
		if !c.recoverErr {
			return nil, fmt.Errorf("chaos: schedule %s: final recovery: %w", s, rerr)
		}
	} else {
		at.Audit = st.Audit
		if c.recoverErr {
			return nil, fmt.Errorf("chaos: schedule %s: runtime %s must refuse recovery, final pass succeeded", s, s.Runtime)
		}
	}
	res.Attempts = append(res.Attempts, at)

	if err := d.locksFree(); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: lock table not free after recovery: %w", s, err)
	}
	if err := d.invariants(); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: invariant violated: %w", s, err)
	}
	if h, ok := d.(heapAuditor); ok {
		res.HeapAudited = true
		reg, reach, err := h.heap()
		if err == nil {
			res.LeakedBlocks, res.LeakedBytes, err = HeapLeak(reg, reach)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: schedule %s: heap audit: %w", s, err)
		}
		// The forward crash, plus every recovery pass cut short.
		if crashes := 1 + res.depth(); res.LeakedBlocks > crashes {
			return nil, fmt.Errorf("chaos: schedule %s: %d blocks (%d bytes) leaked by %d crashes", s, res.LeakedBlocks, res.LeakedBytes, crashes)
		}
	}
	final, err := d.observe()
	if err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: observe: %w", s, err)
	}
	res.Final = final
	if err := compareObservations(oracle, final); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: diverged from the clean-recovery reference: %w", s, err)
	}
	if c.exactPA {
		if err := compareObservations(oraclePA, final); err != nil {
			return nil, fmt.Errorf("chaos: schedule %s: diverged from the CrashPersistAll oracle: %w", s, err)
		}
	} else if err := boundObservations(oraclePA, final); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: outside the CrashPersistAll oracle's bound: %w", s, err)
	}
	return res, nil
}

func runOracle(s Schedule, c caps, mode nvm.CrashMode) (map[string]uint64, error) {
	d, _, err := newDriver(s)
	if err != nil {
		return nil, err
	}
	if err := d.prepare(s.Seed); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: oracle prepare: %w", s, err)
	}
	dev := d.dev()
	defer dev.ArmLocalCrash(-1)
	dev.ArmLocalCrash(s.Forward)
	crashed, ferr := catchCrash(d.forward)
	dev.ArmLocalCrash(-1)
	if ferr != nil {
		return nil, fmt.Errorf("chaos: schedule %s: oracle workload: %w", s, ferr)
	}
	if !crashed {
		return nil, fmt.Errorf("chaos: schedule %s: forward budget %d outlasted the workload; probe ForwardEvents for the bound", s, s.Forward)
	}
	var rng *rand.Rand
	if mode == nvm.CrashRandom {
		rng = rand.New(rand.NewSource(s.Seed))
	}
	if err := d.reopen(mode, rng); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: oracle reopen: %w", s, err)
	}
	if _, err := d.recover(); err != nil && !c.recoverErr {
		return nil, fmt.Errorf("chaos: schedule %s: oracle recovery: %w", s, err)
	}
	if err := d.invariants(); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: oracle invariant violated: %w", s, err)
	}
	return d.observe()
}

func compareObservations(oracle, final map[string]uint64) error {
	for k, want := range oracle {
		got, ok := final[k]
		if !ok {
			return fmt.Errorf("observable %s missing (oracle has %d)", k, want)
		}
		if got != want {
			return fmt.Errorf("observable %s = %d, want %d", k, got, want)
		}
	}
	for k, got := range final {
		if _, ok := oracle[k]; !ok {
			return fmt.Errorf("spurious observable %s = %d (absent from oracle)", k, got)
		}
	}
	return nil
}

// boundObservations is the weakened persist-all check for the UNDO
// baselines: the workload is single-threaded, so at most the one
// in-flight FASE can resolve differently under different adversaries —
// exactly one observable may trail the persist-all oracle, by exactly
// one step. Anything beyond that is lost committed work (or resurrected
// rolled-back work, which exceeding the oracle would reveal).
func boundObservations(pa, final map[string]uint64) error {
	deficits := 0
	for k, want := range pa {
		got, ok := final[k]
		if !ok {
			return fmt.Errorf("observable %s missing (persist-all oracle has %d)", k, want)
		}
		switch {
		case got == want:
		case got+1 == want:
			deficits++
		default:
			return fmt.Errorf("observable %s = %d, persist-all oracle has %d", k, got, want)
		}
	}
	for k, got := range final {
		if _, ok := pa[k]; !ok {
			return fmt.Errorf("spurious observable %s = %d (absent from persist-all oracle)", k, got)
		}
	}
	if deficits > 1 {
		return fmt.Errorf("%d observables trail the persist-all oracle; only the single in-flight FASE may", deficits)
	}
	return nil
}

func modeNames(ms []nvm.CrashMode) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = ModeName(m)
	}
	return strings.Join(parts, "|")
}

// probeBudget is an effectively infinite event budget used to count
// events: arm it, run, and the events consumed are probeBudget minus the
// remaining budget.
const probeBudget = int64(1) << 40

// ForwardEvents counts the injectable device events the schedule's
// forward workload executes to completion — the exclusive upper bound K
// for Schedule.Forward (every budget in 1..K-1 crashes mid-workload; at
// K or beyond the workload finishes first).
func ForwardEvents(s Schedule) (int64, error) {
	d, _, err := newDriver(s)
	if err != nil {
		return 0, err
	}
	if err := d.prepare(s.Seed); err != nil {
		return 0, err
	}
	dev := d.dev()
	defer dev.ArmLocalCrash(-1)
	dev.ArmLocalCrash(probeBudget)
	crashed, ferr := catchCrash(d.forward)
	n := probeBudget - dev.LocalCrashBudgetRemaining()
	dev.ArmLocalCrash(-1)
	if ferr != nil {
		return 0, ferr
	}
	if crashed {
		return 0, fmt.Errorf("chaos: probe budget fired after %d events", n)
	}
	return n, nil
}

// RecoveryEvents counts the injectable events of the schedule's first
// recovery pass (forward crash at s.Forward, settle under s.Mode, one
// recovery) — the bound M for the first Recovery budget. Returns 0 for
// runtimes whose Recover refuses or performs no device events.
func RecoveryEvents(s Schedule) (int64, error) {
	d, c, err := newDriver(s)
	if err != nil {
		return 0, err
	}
	if err := d.prepare(s.Seed); err != nil {
		return 0, err
	}
	dev := d.dev()
	defer dev.ArmLocalCrash(-1)
	dev.ArmLocalCrash(s.Forward)
	crashed, ferr := catchCrash(d.forward)
	dev.ArmLocalCrash(-1)
	if ferr != nil {
		return 0, ferr
	}
	if !crashed {
		return 0, fmt.Errorf("chaos: schedule %s: forward budget %d outlasted the workload", s, s.Forward)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	if err := d.reopen(s.Mode, rng); err != nil {
		return 0, err
	}
	dev.ArmRecoveryCrash(probeBudget)
	var rerr error
	crashed, _ = catchCrash(func() error { _, rerr = d.recover(); return nil })
	n := probeBudget - dev.LocalCrashBudgetRemaining()
	dev.ArmLocalCrash(-1)
	if crashed {
		return 0, fmt.Errorf("chaos: probe budget fired after %d recovery events", n)
	}
	if rerr != nil && !c.recoverErr {
		return 0, rerr
	}
	return n, nil
}
