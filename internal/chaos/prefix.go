package chaos

import (
	"fmt"
	"math/rand"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// The prefix workload goes after iDO's lazy publish (core's rule 3: a
// FASE publishes its recovery_pc at its first persistent store). Its
// first FASE has a long store-free prefix — a hand-over-hand walk over a
// header and three nodes, four boundaries, two inner releases that go
// unfenced — then stores a cell, cuts once more, stores a second cell,
// releases one lock nested and the other finally. Both cells are mixes
// (compactCell) of the whole register file as it stands at that point, so
// a publish that drops or misorders a prefix register shows as a wrong
// cell. Its second FASE, same thread and same locks, walks again and
// stores nothing: it must leave no trace a restart would act on.
const (
	ridPrefix0    = 0x190 // region i of the first FASE has ID ridPrefix0+i
	ridPrefixRO   = 0x198 // the read-only FASE's regions
	prefixRegions = 5     // boundaries of the first FASE
	prefixStoreAt = 3     // its first store is in region 3, the last of the walk
)

// Table layout (words): the two cells, then the holder addresses of the
// header's and the three nodes' locks.
const (
	pCellA = 0
	pCellB = 8
	pLocks = 16
	pSize  = 16 + 4*8
)

// prefixOuts are the outputs of the boundary that opens region i: every
// boundary rewrites r1 (last value wins) and adds registers of its own.
func prefixOuts(i int) []persist.RegVal {
	v := func(r int) uint64 { return uint64(i+1)<<32 | uint64(r+1)<<16 | 0xFA5E }
	return []persist.RegVal{persist.RV(1, v(1)), persist.RV(2+i, v(2+i)), persist.RV(8+i, v(8+i))}
}

// prefixWant is the device-free model of the completed first FASE.
func prefixWant() (a, b uint64) {
	regs := make([]uint64, persist.MaxOutputs)
	for i := 0; i < prefixRegions; i++ {
		for _, o := range prefixOuts(i) {
			regs[o.Reg] = o.Val
		}
		switch i {
		case prefixStoreAt:
			a = compactCell(regs, i)
		case prefixRegions - 1:
			b = compactCell(regs, i)
		}
	}
	return a, b
}

type prefixDriver struct {
	s  Schedule
	mk func() persist.Runtime

	reg  *region.Region
	lm   *locks.Manager
	rt   persist.Runtime
	th   persist.Thread
	tbl  uint64
	lock [4]*locks.Lock // header, node 0..2
}

func (d *prefixDriver) dev() *nvm.Device { return d.reg.Dev }

func (d *prefixDriver) prepare(seed int64) error {
	d.reg = region.Create(1<<16, d.s.nvmConfig())
	d.lm = locks.NewManager(d.reg)
	d.rt = d.mk()
	if err := d.rt.Attach(d.reg, d.lm); err != nil {
		return err
	}
	var err error
	if d.tbl, err = d.reg.Alloc.Alloc(pSize); err != nil {
		return err
	}
	dev := d.reg.Dev
	dev.Store64(d.tbl+pCellA, 0)
	dev.Store64(d.tbl+pCellB, 0)
	for i := range d.lock {
		if d.lock[i], err = d.lm.Create(); err != nil {
			return err
		}
		dev.Store64(d.tbl+pLocks+uint64(i)*8, d.lock[i].Holder())
	}
	dev.PersistRange(d.tbl, pSize)
	dev.Fence()
	d.reg.SetRoot(rootChaosCtr0, d.tbl)
	d.th, err = d.rt.NewThread()
	return err
}

// open logs region i's inputs into regs and through its boundary.
func (d *prefixDriver) open(th persist.Thread, regs []uint64, rid uint64, i int) {
	outs := persist.Outs(th)
	for _, o := range prefixOuts(i) {
		regs[o.Reg] = o.Val
		outs = append(outs, o)
	}
	th.Boundary(rid+uint64(i), outs...)
}

// walk takes the header's lock and hands over down the three nodes, a
// boundary after every acquire (regions 0..3 of rid), and returns
// holding nodes 1 and 2.
func (d *prefixDriver) walk(th persist.Thread, regs []uint64, rid uint64) {
	for i, l := range d.lock {
		th.Lock(l)
		d.open(th, regs, rid, i)
		if i > 0 && i < len(d.lock)-1 {
			th.Unlock(d.lock[i-1]) // inner release: still unpublished, so unfenced
		}
	}
}

// finish runs the first FASE from region from's entry, where regs is the
// register file, to its end. Each region stores only its own cell from
// its own inputs, so re-executing one from its entry is idempotent.
func (d *prefixDriver) finish(th persist.Thread, regs []uint64, from int) {
	if from == prefixStoreAt {
		th.Store64(d.tbl+pCellA, compactCell(regs, prefixStoreAt)) // the first store: publishes
		d.open(th, regs, ridPrefix0, prefixRegions-1)
	}
	th.Store64(d.tbl+pCellB, compactCell(regs, prefixRegions-1))
	th.Unlock(d.lock[3]) // nested release of a published FASE: fenced
	th.Unlock(d.lock[2])
}

func (d *prefixDriver) forward() error {
	regs := make([]uint64, persist.MaxOutputs)
	d.walk(d.th, regs, ridPrefix0)
	d.finish(d.th, regs, prefixStoreAt)

	// The read-only FASE: same walk, loads instead of stores.
	d.walk(d.th, make([]uint64, persist.MaxOutputs), ridPrefixRO)
	a, b := prefixWant()
	if d.th.Load64(d.tbl+pCellA) != a || d.th.Load64(d.tbl+pCellB) != b {
		return fmt.Errorf("prefix: the first FASE left cells that do not match the model")
	}
	d.th.Unlock(d.lock[3])
	d.th.Unlock(d.lock[2])
	return nil
}

func (d *prefixDriver) reopen(mode nvm.CrashMode, rng *rand.Rand) error {
	reg2, err := d.reg.Crash(mode, rng)
	if err != nil {
		return err
	}
	d.reg = reg2
	d.lm = locks.NewManager(reg2)
	d.rt = d.mk()
	if err := d.rt.Attach(reg2, d.lm); err != nil {
		return err
	}
	d.tbl = reg2.Root(rootChaosCtr0)
	for i := range d.lock {
		d.lock[i] = d.lm.ByHolder(reg2.Dev.Load64(d.tbl + pLocks + uint64(i)*8))
	}
	d.th = nil
	return nil
}

// recover registers only the two regions that can hold a published
// recovery_pc: the walk's last (where the first store is) and the one
// after it. A restart that asks for any other region — a prefix region,
// a region of the read-only FASE — fails with "no resume entry".
func (d *prefixDriver) recover() (persist.RecoveryStats, error) {
	rr := persist.NewResumeRegistry()
	for _, i := range []int{prefixStoreAt, prefixRegions - 1} {
		i := i
		rr.Register(ridPrefix0+uint64(i), func(th persist.Thread, rf []uint64) { d.finish(th, rf, i) })
	}
	return d.rt.Recover(rr)
}

func (d *prefixDriver) observe() (map[string]uint64, error) {
	return map[string]uint64{
		"cellA": d.reg.Dev.Load64(d.tbl + pCellA),
		"cellB": d.reg.Dev.Load64(d.tbl + pCellB),
	}, nil
}

// invariants: after recovery the first FASE either never stored (both
// cells still 0) or ran to its end with both stores having seen the
// register file the model predicts.
func (d *prefixDriver) invariants() error {
	a, b := d.reg.Dev.Load64(d.tbl+pCellA), d.reg.Dev.Load64(d.tbl+pCellB)
	wa, wb := prefixWant()
	if (a != 0 || b != 0) && (a != wa || b != wb) {
		return fmt.Errorf("cells %#x, %#x: want both 0 (the FASE never stored) or the model's %#x, %#x", a, b, wa, wb)
	}
	return nil
}

func (d *prefixDriver) locksFree() error {
	for i, l := range d.lock {
		if !l.TryAcquire() {
			return fmt.Errorf("workload lock %d (holder %#x) still held", i, l.Holder())
		}
		l.Release()
	}
	return nil
}

// heap names the table and the four lock holders; the FASEs allocate
// nothing, so a leak here is a block of the setup or of a log gone
// unreachable.
func (d *prefixDriver) heap() (*region.Region, []uint64, error) {
	reach := []uint64{d.tbl}
	for _, l := range d.lock {
		reach = append(reach, l.Holder())
	}
	return d.reg, reach, nil
}
