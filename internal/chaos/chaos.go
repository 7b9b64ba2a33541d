// Package chaos drives deterministic, replayable crash schedules across
// every persistence runtime. A schedule crashes the forward workload at
// its Nth injectable device event, then crashes each nested recovery
// pass at the Mth event of that pass (nesting depth ≤ 3: crash the
// recovery of the recovery), re-settles the device under the schedule's
// adversary, and finally runs one clean recovery.
//
// The forward run happens once per crash point. Its crash image, the
// device as the crash left it and before any settle, is never settled
// itself: the schedule, its references and the recovery-event probe
// each settle and recover an nvm.Device.Fork of it, so every schedule
// crashed at one point shares one forward run and one set of
// references. The surviving state is verified three ways, plus workload
// invariants and lock-table freedom:
//
//  1. Convergence: the final state must equal the reference that
//     settles a fork of the same image under the same adversary and
//     seed but recovers once, cleanly — nested recovery crashes must be
//     invisible.
//  2. CrashPersistAll oracle, exact: for recovery-via-resumption
//     runtimes (iDO native and VM, and the baselines whose commit point
//     is a single unambiguous durable store) the outcome must also match
//     a fork of the image settled under nvm.CrashPersistAll, the adversary
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
	"sync/atomic"

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
		s.Runtime, s.Workload, s.Mode, s.Seed, s.Forward, rec)
}

// ParseMode inverts nvm.CrashMode's String, the canonical flag spelling
// of a crash adversary shared with idorecover's -mode flag.
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
// Crash injection is armed and caught, and the device settled, by the
// harness, never the driver.
type driver interface {
	prepare(seed int64) error
	// region is the region prepare formatted or attach was given.
	region() *region.Region
	forward() error
	// attach rebuilds the volatile side — a fresh runtime, lock manager
	// and workload handles — over reg, a settled image, exactly like a
	// restarted process re-mapping the region.
	attach(reg *region.Region) error
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
	heap() (reach []uint64, err error)
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

// prepared counts driver prepares: every forward run the package makes.
var prepared atomic.Int64

// forwardRun prepares s's driver and runs its forward workload with a
// budget of s.Forward device events armed: the one place the package
// runs a workload forward. It returns the driver's region, the crash
// image when the budget fired, and the events left in the budget, which
// is negative exactly when it fired.
func forwardRun(s Schedule) (*region.Region, int64, error) {
	d, _, err := newDriver(s)
	if err != nil {
		return nil, 0, err
	}
	prepared.Add(1)
	if err := d.prepare(s.Seed); err != nil {
		return nil, 0, fmt.Errorf("chaos: schedule %s: prepare: %w", s, err)
	}
	dev := d.region().Dev
	defer dev.ArmLocalCrash(-1)
	dev.ArmLocalCrash(s.Forward)
	if _, err := catchCrash(d.forward); err != nil {
		return nil, 0, fmt.Errorf("chaos: schedule %s: forward workload: %w", s, err)
	}
	return d.region(), dev.LocalCrashBudgetRemaining(), nil
}

// point is one forward crash point: the crash image its forward run
// left, never settled itself, and the clean-recovery references computed
// from it so far. Every reader of the image — a reference, a probe, a
// schedule — settles and recovers a Fork of its device, so one forward
// run serves every adversary and every recovery budget at the point.
type point struct {
	s    Schedule // Runtime, Workload, Seed and Forward of the image
	c    caps
	img  *region.Region
	refs map[nvm.CrashMode]reference
}

// reference is the image settled under one adversary and recovered
// once, cleanly: what it observes, and the injectable events of that
// recovery pass (the bound for a first Recovery budget).
type reference struct {
	obs    map[string]uint64
	events int64
}

// newPoint runs s's forward workload to its crash at s.Forward.
func newPoint(s Schedule) (*point, error) {
	_, c, err := newDriver(s)
	if err != nil {
		return nil, err
	}
	img, left, err := forwardRun(s)
	if err != nil {
		return nil, err
	}
	if left >= 0 {
		return nil, fmt.Errorf("chaos: schedule %s: forward budget %d outlasted the workload; probe ForwardEvents for the bound", s, s.Forward)
	}
	return &point{s: s, c: c, img: img, refs: map[nvm.CrashMode]reference{}}, nil
}

// fork returns a fresh driver and a fork of the image for it.
func (p *point) fork() (driver, *nvm.Device) {
	d, _, _ := newDriver(p.s) // newPoint accepted p.s
	return d, p.img.Dev.Fork()
}

// seeded is the rng the settles under mode draw from: CrashRandom's,
// seeded with the schedule's seed. The other adversaries draw nothing.
func seeded(mode nvm.CrashMode, seed int64) *rand.Rand {
	if mode != nvm.CrashRandom {
		return nil
	}
	return rand.New(rand.NewSource(seed))
}

// settle crashes dev under mode and attaches d to what survives.
func settle(d driver, dev *nvm.Device, mode nvm.CrashMode, rng *rand.Rand) error {
	dev.Crash(mode, rng)
	reg, err := region.Attach(dev)
	if err != nil {
		return err
	}
	return d.attach(reg)
}

// ref returns the reference under mode, computed once per point: a fork
// settled from a fresh rng seeded like the schedule's own first settle,
// one clean recovery counted by a probe budget, the invariants, and the
// observables. s names the schedule in errors.
func (p *point) ref(s Schedule, mode nvm.CrashMode) (reference, error) {
	if r, ok := p.refs[mode]; ok {
		return r, nil
	}
	d, dev := p.fork()
	if err := settle(d, dev, mode, seeded(mode, p.s.Seed)); err != nil {
		return reference{}, fmt.Errorf("chaos: schedule %s: oracle reopen: %w", s, err)
	}
	var rerr error
	dev.ArmRecoveryCrash(probeBudget)
	crashed, _ := catchCrash(func() error { _, rerr = d.recover(); return nil })
	n := probeBudget - dev.LocalCrashBudgetRemaining()
	dev.ArmLocalCrash(-1)
	if crashed {
		return reference{}, fmt.Errorf("chaos: schedule %s: probe budget fired after %d recovery events", s, n)
	}
	if rerr != nil && !p.c.recoverErr {
		return reference{}, fmt.Errorf("chaos: schedule %s: oracle recovery: %w", s, rerr)
	}
	if err := d.invariants(); err != nil {
		return reference{}, fmt.Errorf("chaos: schedule %s: oracle invariant violated: %w", s, err)
	}
	obs, err := d.observe()
	if err != nil {
		return reference{}, err
	}
	p.refs[mode] = reference{obs: obs, events: n}
	return p.refs[mode], nil
}

// Run executes one schedule end to end and verifies convergence.
// Failures wrap the schedule string so they can be replayed with
// `idorecover -chaos -replay '<schedule>'`.
func Run(s Schedule) (*Result, error) {
	_, c, err := newDriver(s)
	if err != nil {
		return nil, err
	}
	if !c.supports(s.Mode) {
		return nil, fmt.Errorf("chaos: schedule %s: runtime %s has no recovery under the %s adversary (supported: %s)",
			s, s.Runtime, s.Mode, modeNames(c.modes))
	}
	if s.Forward < 1 {
		return nil, fmt.Errorf("chaos: schedule %s: forward budget must be ≥ 1", s)
	}
	if len(s.Recovery) > MaxDepth {
		return nil, fmt.Errorf("chaos: schedule %s: nesting depth %d exceeds %d", s, len(s.Recovery), MaxDepth)
	}
	p, err := newPoint(s)
	if err != nil {
		return nil, err
	}
	return p.run(s)
}

// run executes s, whose forward crash is p's, on a fork of p's image and
// verifies it against p's references: the CrashPersistAll oracle, and
// (when the schedule's adversary differs) the same-adversary clean
// recovery the chaos run must converge to, whose settle draws the same
// rng sequence as the schedule's first.
func (p *point) run(s Schedule) (*Result, error) {
	c := p.c
	pa, err := p.ref(s, nvm.CrashPersistAll)
	if err != nil {
		return nil, err
	}
	ref, err := p.ref(s, s.Mode)
	if err != nil {
		return nil, err
	}
	res := &Result{Schedule: s, Oracle: ref.obs, PersistAll: pa.obs}
	d, dev := p.fork()
	rng := seeded(s.Mode, s.Seed)
	for _, r := range s.Recovery {
		if err := settle(d, dev, s.Mode, rng); err != nil {
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
	if err := settle(d, dev, s.Mode, rng); err != nil {
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
		reach, err := h.heap()
		if err == nil {
			res.LeakedBlocks, res.LeakedBytes, err = HeapLeak(d.region(), reach)
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
	if err := compareObservations(ref.obs, final); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: diverged from the clean-recovery reference: %w", s, err)
	}
	if c.exactPA {
		if err := compareObservations(pa.obs, final); err != nil {
			return nil, fmt.Errorf("chaos: schedule %s: diverged from the CrashPersistAll oracle: %w", s, err)
		}
	} else if err := boundObservations(pa.obs, final); err != nil {
		return nil, fmt.Errorf("chaos: schedule %s: outside the CrashPersistAll oracle's bound: %w", s, err)
	}
	return res, nil
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
		parts[i] = m.String()
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
	s.Forward = probeBudget
	_, left, err := forwardRun(s)
	if err != nil {
		return 0, err
	}
	if left < 0 {
		return 0, fmt.Errorf("chaos: probe budget fired after %d events", probeBudget)
	}
	return probeBudget - left, nil
}

// RecoveryEvents counts the injectable events of the schedule's first
// recovery pass (forward crash at s.Forward, settle under s.Mode, one
// recovery) — the bound M for the first Recovery budget. Returns 0 for
// runtimes whose Recover refuses or performs no device events.
func RecoveryEvents(s Schedule) (int64, error) {
	p, err := newPoint(s)
	if err != nil {
		return 0, err
	}
	r, err := p.ref(s, s.Mode)
	return r.events, err
}
