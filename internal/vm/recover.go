package vm

import (
	"fmt"
	"slices"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/persist"
)

// Recover completes every FASE a crash interrupted, per the machine's
// mode (§III-C for iDO; the analogous store-granularity resumption for
// JUSTDO), with the shared walk: it adopts a thread per log, re-acquires
// locks via the indirect holders and hands iDO threads their decoded
// register file; this package jumps to the logged location and executes
// to the end of the FASE. When it succeeds, the adopted threads whose log
// this machine's NewThread would have created (121 registers, raw only
// under JUSTDO) are kept for NewThread, stack frame and all. It must run
// before the machine hands out its first thread.
//
// Fidelity note: JUSTDO was designed for machines with nonvolatile
// caches (§I). This implementation fences each ⟨addr, val⟩ record durable
// before the single pc store that publishes it, so its replay is exact
// under the volatile-cache crash adversaries too.
func (m *Machine) Recover() (persist.RecoveryStats, error) {
	if err := m.registry.Recovering(m.name()); err != nil {
		return persist.RecoveryStats{}, err
	}
	if m.Mode == ModeOrigin {
		return persist.Recover(m.Reg, m.name(), nil)
	}
	var adopted []*Thread
	st, err := idolog.Recover(m.Reg, m.LM, m.name(), func(id int, pc uint64) (*idolog.Log, func([]uint64), error) {
		t := &Thread{m: m}
		adopted = append(adopted, t)
		return m.adopt(t, id, pc)
	})
	if err != nil {
		return st, err
	}
	m.registry.Keep(slices.DeleteFunc(adopted, func(t *Thread) bool { return !t.Fits(MaxRegs+1, 8, m.Mode == ModeJUSTDO) }))
	return st, nil
}

// adopt is idolog.Adopt for this machine, with t the recovery thread for
// the log: for a live pc it returns the jump to what the pc names — an
// iDO region's entry, or the instruction after a JUSTDO record's.
func (m *Machine) adopt(t *Thread, id int, pc uint64) (*idolog.Log, func([]uint64), error) {
	m.registry.Lock()
	m.registry.Add(id, &t.Stats)
	m.threads = append(m.threads, t)
	m.registry.Unlock()
	if pc == 0 {
		return &t.Log, nil, nil
	}
	var f *ir.Func
	var block, idx int
	if m.Mode == ModeIDO {
		regionID, _, _ := idolog.Unpack(pc)
		target, ok := m.Prog.Resolve[regionID]
		if !ok {
			return nil, nil, fmt.Errorf("vm: recovery_pc %#x resolves to no region", regionID)
		}
		f, block, idx = m.Prog.Funcs[target.Func].F, target.Entry.Block, target.Entry.Index
	} else {
		fnIdx, blk, i := compile.UnpackPC(pc &^ jdBufBit)
		if fnIdx >= len(m.funcNames) {
			return nil, nil, fmt.Errorf("vm: JUSTDO pc %#x names function %d of %d", pc, fnIdx, len(m.funcNames))
		}
		f = m.Prog.Funcs[m.funcNames[fnIdx]].F
		if blk >= len(f.Blocks) || i >= len(f.Blocks[blk].Instrs) {
			return nil, nil, fmt.Errorf("vm: JUSTDO pc %#x out of range in %s", pc, f.Name)
		}
		// idx+1 may point one past a fall-through block's last
		// instruction; both engines continue into the next block
		// (FlatIndex lands on its first decoded instruction).
		block, idx = blk, i+1
	}
	return &t.Log, func(rf []uint64) {
		dev := m.Reg.Dev
		t.frame = dev.Load64(t.Extra() + xFrame)
		if rf == nil {
			// JUSTDO: re-perform the logged store from the record buffer
			// the pc names, then continue with the slot-backed registers.
			t.jdBuf = int(pc >> 63)
			rec := t.jdRec(t.jdBuf)
			addr, val := dev.Load64(rec), dev.Load64(rec+8)
			dev.Store64(addr, val)
			dev.CLWB(addr)
			dev.Fence()
			rf = make([]uint64, MaxRegs+1)
			for r := 0; r < f.NumRegs; r++ {
				rf[r] = dev.Load64(t.RegAddr(r))
			}
			rf[MaxRegs] = dev.Load64(t.RegAddr(MaxRegs))
		}
		copy(t.rf[:], rf)
		if t.sp = rf[MaxRegs]; t.sp == 0 {
			t.sp = t.frame // never moved, so never logged
		}
		t.runFrom(f, block, idx)
	}, nil
}

// runFrom resumes execution at (block, idx), stopping when the
// interrupted FASE closes (depth 0).
func (t *Thread) runFrom(f *ir.Func, block, idx int) {
	if run := t.m.legacy; run != nil {
		run(t, f, block, idx, 0)
		return
	}
	d := t.m.code[f.Name]
	t.exec(d, d.FlatIndex(block, idx), 0)
}
