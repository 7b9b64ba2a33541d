package chaos

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// The compact workload is one lock-delineated FASE that logs more than
// twice what an iDO log's record area holds (64 pairs), so the runtime
// compacts twice inside it: compactRegions boundaries of compactOutputs
// registers each, rotating through the whole register file. Every
// region stores one cell computed from ALL sixteen registers as they
// stand at its entry, so a register file that recovery rebuilt wrongly
// — a pair replayed out of order, a base image torn by a crash inside
// a compaction — shows up as a wrong cell, checked against a model that
// never touches the device.
const (
	compactRegions = 18
	compactOutputs = 8
	ridCompact0    = 0x170 // region i has ID ridCompact0+i
)

// compactOut is output j of the boundary that opens region i.
func compactOut(i, j int) persist.RegVal {
	return persist.RV((5*i+j)%persist.MaxOutputs, uint64(i+1)<<32|uint64(j+1)<<16|0xC0DE)
}

// compactCell is what region i stores: a mix of the register file at its
// entry, position-sensitive in both register and region.
func compactCell(regs []uint64, i int) uint64 {
	h := uint64(i + 1)
	for r, v := range regs {
		h = (h^v)*0x9E3779B97F4A7C15 + uint64(r)
	}
	return h | 1 // never 0: 0 means "not written"
}

// compactWant is the device-free model of the completed FASE's cells.
func compactWant() [compactRegions]uint64 {
	var want [compactRegions]uint64
	regs := make([]uint64, persist.MaxOutputs)
	for i := range want {
		for j := 0; j < compactOutputs; j++ {
			o := compactOut(i, j)
			regs[o.Reg] = o.Val
		}
		want[i] = compactCell(regs, i)
	}
	return want
}

type compactDriver struct {
	nativeBase
	lock  *locks.Lock
	cells uint64
}

func (d *compactDriver) prepare(seed int64) error {
	err := d.mount(region.Create(1<<16, nvm.Config{}))
	if err != nil {
		return err
	}
	if d.lock, err = d.lm.Create(); err != nil {
		return err
	}
	if d.cells, err = d.reg.Alloc.Alloc(compactRegions * 8); err != nil {
		return err
	}
	for i := uint64(0); i < compactRegions; i++ {
		d.reg.Dev.Store64(d.cells+i*8, 0)
	}
	d.reg.Dev.PersistRange(d.cells, compactRegions*8)
	d.reg.Dev.Fence()
	d.reg.SetRoot(rootChaosCtr0, d.cells)
	d.reg.SetRoot(rootChaosLock0, d.lock.Holder())
	d.th, err = d.rt.NewThread()
	return err
}

// open logs region i's inputs into regs and through the boundary that
// opens it.
func (d *compactDriver) open(th persist.Thread, regs []uint64, i int) {
	outs := persist.Outs(th)
	for j := 0; j < compactOutputs; j++ {
		o := compactOut(i, j)
		regs[o.Reg] = o.Val
		outs = append(outs, o)
	}
	th.Boundary(ridCompact0+uint64(i), outs...)
}

// run executes the FASE from region from's entry, where regs is the
// register file, to its end. Each region only stores its own cell, so
// re-executing one from its entry is idempotent.
func (d *compactDriver) run(th persist.Thread, regs []uint64, from int) {
	for i := from; i < compactRegions; i++ {
		if i > from {
			d.open(th, regs, i)
		}
		th.Store64(d.cells+uint64(i)*8, compactCell(regs, i))
	}
	th.Unlock(d.lock)
}

func (d *compactDriver) forward() error {
	regs := make([]uint64, persist.MaxOutputs)
	d.th.Lock(d.lock)
	d.open(d.th, regs, 0)
	d.run(d.th, regs, 0)
	return nil
}

func (d *compactDriver) attach(reg *region.Region) error {
	if err := d.mount(reg); err != nil {
		return err
	}
	d.cells = reg.Root(rootChaosCtr0)
	d.lock = d.lm.ByHolder(reg.Root(rootChaosLock0))
	return nil
}

func (d *compactDriver) recover() (persist.RecoveryStats, error) {
	rr := persist.NewResumeRegistry()
	for i := 0; i < compactRegions; i++ {
		i := i
		rr.Register(ridCompact0+uint64(i), func(th persist.Thread, rf []uint64) { d.run(th, rf, i) })
	}
	return d.rt.Recover(rr)
}

func (d *compactDriver) observe() (map[string]uint64, error) {
	out := make(map[string]uint64, compactRegions)
	for i := 0; i < compactRegions; i++ {
		out[fmt.Sprintf("cell%02d", i)] = d.reg.Dev.Load64(d.cells + uint64(i)*8)
	}
	return out, nil
}

// invariants: after recovery the FASE either never started (its entry
// boundary was not published: every cell still 0) or ran to its end with
// every region having seen the register file the model predicts.
func (d *compactDriver) invariants() error {
	want := compactWant()
	started := d.reg.Dev.Load64(d.cells) != 0
	for i := range want {
		got := d.reg.Dev.Load64(d.cells + uint64(i)*8)
		if !started && got != 0 {
			return fmt.Errorf("cell %d = %#x in a FASE whose first region never ran", i, got)
		}
		if started && got != want[i] {
			return fmt.Errorf("cell %d = %#x, model has %#x: region %d resumed with a wrong register file or not at all", i, got, want[i], i)
		}
	}
	return nil
}

func (d *compactDriver) locksFree() error {
	if !d.lock.TryAcquire() {
		return fmt.Errorf("workload lock (holder %#x) still held", d.lock.Holder())
	}
	d.lock.Release()
	return nil
}
