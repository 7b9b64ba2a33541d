package chaos

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/justdo"
	"github.com/ido-nvm/ido/internal/baselines/mnemosyne"
	"github.com/ido-nvm/ido/internal/baselines/nvml"
	"github.com/ido-nvm/ido/internal/baselines/nvthreads"
	"github.com/ido-nvm/ido/internal/baselines/origin"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Root slots the chaos workloads own (20..25; the runtimes use 0 and
// 16..19, examples and tests use 1..6).
const (
	rootChaosCtr0  = 20
	rootChaosCtr1  = 21
	rootChaosLock0 = 22
	rootChaosLock1 = 23
	rootChaosMap   = 24
	rootChaosCache = 25
)

// Resume-region IDs for the counter workload's boundaries.
const (
	ridChaosA0 = 0x160
	ridChaosB0 = 0x161
	ridChaosA1 = 0x162
	ridChaosB1 = 0x163
)

const (
	counterInit  = 5 // initial value of both counters
	counterFASEs = 8 // total increments, alternating between the two counters
)

// nativeBase is what every native driver holds: the runtime's
// constructor, and the runtime, lock manager and workload thread over
// the current region.
type nativeBase struct {
	mk  func() persist.Runtime
	reg *region.Region
	lm  *locks.Manager
	rt  persist.Runtime
	th  persist.Thread // nil after attach: recovery runs no workload FASE
}

func (b *nativeBase) region() *region.Region { return b.reg }

// mount attaches a fresh runtime and lock manager to reg.
func (b *nativeBase) mount(reg *region.Region) error {
	b.reg, b.lm, b.rt = reg, locks.NewManager(reg), b.mk()
	return b.rt.Attach(reg, b.lm)
}

// nativeDriver runs a persist.Runtime implementation directly (no VM)
// over the counter workload.
type nativeDriver struct {
	nativeBase
	lock [2]*locks.Lock
	ctr  [2]uint64
}

func newNativeDriver(s Schedule) (driver, caps, error) {
	mk, c, err := nativeRuntime(s.Runtime)
	if err != nil {
		return nil, caps{}, err
	}
	switch s.Workload {
	case "counter":
		return &nativeDriver{nativeBase: nativeBase{mk: mk}}, c, nil
	case "cachemix":
		// The delete-heavy memcache script needs recovery that completes
		// (or wholly discards) the in-flight FASE: a torn chain unlink is
		// a structural invariant violation, not a bounded counter deficit,
		// so the no-recovery and cached-truncation runtimes are out.
		switch s.Runtime {
		case "ido", "mnemosyne", "nvthreads":
		default:
			return nil, caps{}, fmt.Errorf("chaos: runtime %s: workload \"cachemix\" needs FASE-exact recovery (supported on ido|mnemosyne|nvthreads)", s.Runtime)
		}
		return &cacheDriver{nativeBase: nativeBase{mk: mk}}, c, nil
	case "compact":
		// One FASE that overflows the iDO log's record area twice: only
		// iDO has a record area to compact.
		if s.Runtime != "ido" {
			return nil, caps{}, fmt.Errorf("chaos: runtime %s: workload \"compact\" exercises the iDO log (supported on ido)", s.Runtime)
		}
		return &compactDriver{nativeBase: nativeBase{mk: mk}}, c, nil
	case "prefix":
		// A long store-free FASE prefix and a read-only FASE: only iDO
		// publishes lazily, and only its lock slots can be left stale.
		if s.Runtime != "ido" {
			return nil, caps{}, fmt.Errorf("chaos: runtime %s: workload \"prefix\" exercises the iDO log (supported on ido)", s.Runtime)
		}
		return &prefixDriver{nativeBase: nativeBase{mk: mk}}, c, nil
	}
	return nil, caps{}, fmt.Errorf("chaos: runtime %s: unknown workload %q (native runtimes run \"counter\", \"cachemix\", \"compact\" or \"prefix\")", s.Runtime, s.Workload)
}

// nativeRuntime maps a native runtime name to its constructor and the
// capabilities it promises under this harness.
func nativeRuntime(name string) (func() persist.Runtime, caps, error) {
	var mk func() persist.Runtime
	c := caps{modes: allModes, exactPA: true}
	switch name {
	case "ido":
		mk = func() persist.Runtime { return core.New(core.DefaultConfig()) }
	case "atlas":
		// UNDO with cached truncation: the data-fence..truncation-fence
		// window commits under persist-all and rolls back under discard,
		// so the persist-all oracle only bounds the outcome.
		mk = func() persist.Runtime { return atlas.New(atlas.Config{Retain: true}) }
		c.exactPA = false
	case "mnemosyne":
		mk = func() persist.Runtime { return mnemosyne.New() }
	case "nvthreads":
		mk = func() persist.Runtime { return nvthreads.New() }
	case "nvml":
		// Same cached-truncation commit window as atlas.
		mk = func() persist.Runtime { return nvml.New() }
		c.exactPA = false
	case "justdo":
		// Native JUSTDO stores are fenced durable in place as they
		// execute, so the observables are adversary-independent, but
		// resumption needs the VM replay: Recover must refuse.
		mk = func() persist.Runtime { return justdo.New() }
		c.recoverErr = true
	case "origin":
		// No logging and no recovery: exact only under persist-all,
		// where the settle itself is the oracle's settle.
		mk = func() persist.Runtime { return origin.New() }
		c.modes = []nvm.CrashMode{nvm.CrashPersistAll}
	default:
		return nil, caps{}, fmt.Errorf("chaos: unknown runtime %q (want one of %v)", name, Runtimes())
	}
	return mk, c, nil
}

func (d *nativeDriver) prepare(seed int64) error {
	if err := d.mount(region.Create(1<<20, nvm.Config{})); err != nil {
		return err
	}
	dev := d.reg.Dev
	for i := 0; i < 2; i++ {
		lock, err := d.lm.Create()
		if err != nil {
			return err
		}
		ctr, err := d.reg.Alloc.Alloc(8)
		if err != nil {
			return err
		}
		dev.Store64(ctr, counterInit)
		dev.CLWB(ctr)
		dev.Fence()
		d.lock[i] = lock
		d.ctr[i] = ctr
	}
	d.reg.SetRoot(rootChaosCtr0, d.ctr[0])
	d.reg.SetRoot(rootChaosCtr1, d.ctr[1])
	d.reg.SetRoot(rootChaosLock0, d.lock[0].Holder())
	d.reg.SetRoot(rootChaosLock1, d.lock[1].Holder())
	var err error
	d.th, err = d.rt.NewThread()
	return err
}

// forward alternates increment FASEs over the two counters. The crash
// budget is armed by the harness after prepare, so event counting starts
// at the first Lock of the first FASE.
func (d *nativeDriver) forward() error {
	for i := 0; i < counterFASEs; i++ {
		d.increment(i % 2)
	}
	return nil
}

func (d *nativeDriver) increment(i int) {
	ridA, ridB := uint64(ridChaosA0), uint64(ridChaosB0)
	if i == 1 {
		ridA, ridB = ridChaosA1, ridChaosB1
	}
	th := d.th
	th.Lock(d.lock[i])
	th.Boundary(ridA)
	v := th.Load64(d.ctr[i])
	th.Boundary(ridB, persist.RV(0, v))
	th.Store64(d.ctr[i], v+1)
	th.Unlock(d.lock[i])
}

func (d *nativeDriver) attach(reg *region.Region) error {
	if err := d.mount(reg); err != nil {
		return err
	}
	d.ctr = [2]uint64{reg.Root(rootChaosCtr0), reg.Root(rootChaosCtr1)}
	d.lock = [2]*locks.Lock{
		d.lm.ByHolder(reg.Root(rootChaosLock0)),
		d.lm.ByHolder(reg.Root(rootChaosLock1)),
	}
	return nil
}

// registry rebuilds the resume registry against the current incarnation
// of the locks and counters (they change at every attach).
func (d *nativeDriver) registry() *persist.ResumeRegistry {
	rr := persist.NewResumeRegistry()
	for i := 0; i < 2; i++ {
		i := i
		ridA, ridB := uint64(ridChaosA0), uint64(ridChaosB0)
		if i == 1 {
			ridA, ridB = ridChaosA1, ridChaosB1
		}
		rr.Register(ridA, func(th persist.Thread, rf []uint64) {
			v := th.Load64(d.ctr[i])
			th.Boundary(ridB, persist.RV(0, v))
			th.Store64(d.ctr[i], v+1)
			th.Unlock(d.lock[i])
		})
		rr.Register(ridB, func(th persist.Thread, rf []uint64) {
			th.Store64(d.ctr[i], rf[0]+1)
			th.Unlock(d.lock[i])
		})
	}
	return rr
}

func (d *nativeDriver) recover() (persist.RecoveryStats, error) {
	return d.rt.Recover(d.registry())
}

func (d *nativeDriver) observe() (map[string]uint64, error) {
	return map[string]uint64{
		"ctr0": d.reg.Dev.Load64(d.ctr[0]),
		"ctr1": d.reg.Dev.Load64(d.ctr[1]),
	}, nil
}

func (d *nativeDriver) invariants() error {
	for i := 0; i < 2; i++ {
		v := d.reg.Dev.Load64(d.ctr[i])
		if v < counterInit || v > counterInit+counterFASEs/2 {
			return fmt.Errorf("counter %d = %d, outside [%d, %d]", i, v, counterInit, counterInit+counterFASEs/2)
		}
	}
	return nil
}

func (d *nativeDriver) locksFree() error {
	for i := 0; i < 2; i++ {
		if !d.lock[i].TryAcquire() {
			return fmt.Errorf("workload lock %d (holder %#x) still held", i, d.lock[i].Holder())
		}
		d.lock[i].Release()
	}
	return nil
}
