// Package vm executes compiled mini-IR programs against simulated NVM,
// providing what the paper gets from native execution on real hardware:
// the ability to crash at any device event and to resume — jump to
// a logged program counter with a restored register file — during
// recovery.
//
// Execution is threaded code: compile pre-decodes each function into one
// flat instruction array (resolved jump offsets, pre-classified operands,
// pre-packed recovery pcs — see internal/compile/decode.go), and the
// engine in exec() walks it with a single dense-switch dispatch. The
// original tree-walking interpreter survives in this package's tests as
// the differential oracle: both engines execute the same instructions in
// the same order, so their device event counts and crash-injection
// points are identical (asserted by equiv_test.go).
//
// Three runtime modes are implemented:
//
//   - ModeOrigin: no instrumentation (crash vulnerable);
//   - ModeIDO: the iDO protocol of internal/idolog, the one internal/core
//     drives too — OpBoundary instructions hand the region's input
//     registers (and the stack pointer, as one more register) to the
//     thread's log, stores and lock operations go through it (§III);
//   - ModeJUSTDO: JUSTDO logging — every mutation of program state inside
//     a FASE (user stores and register definitions, since JUSTDO forbids
//     register caching) writes a ⟨pc, addr, value⟩ record that is fenced
//     durable before the mutation, costing three fences per mutation, plus
//     a fenced intention record per lock operation. It keeps its records
//     and fences to itself and shares the log's header, lock_array and
//     FASE bracket.
//
// Per-thread logs live in NVM; recovery is idolog's walk, to which this
// package supplies the jump: enter the decoded code at the logged
// location with the restored register file and execute forward to the end
// of the FASE.
package vm

import (
	"fmt"
	"sort"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Mode selects the persistence runtime the VM applies.
type Mode int

// VM runtime modes.
const (
	ModeOrigin Mode = iota
	ModeIDO
	ModeJUSTDO
)

func (m Mode) String() string {
	switch m {
	case ModeOrigin:
		return "origin"
	case ModeIDO:
		return "ido"
	case ModeJUSTDO:
		return "justdo"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MaxRegs bounds virtual registers per function. A thread's log has one
// register more: the stack pointer is logged as register MaxRegs.
const MaxRegs = 120

// The words a VM thread keeps behind its log (byte offsets from
// Log.Extra): the stack frame base, and for JUSTDO the lock intention
// slot and two ping-pong ⟨addr, val⟩ record buffers, a cache line each.
const (
	xFrame    = 0
	xIntent   = 8
	xJDRec    = 64
	extraSize = xJDRec + 2*nvm.LineSize
)

// jdBufBit rides in the published JUSTDO pc word (compile.PackPC only
// uses bits 0..62), naming the record buffer the pc refers to.
const jdBufBit = uint64(1) << 63

// jdRec returns the base of JUSTDO record buffer buf (0 or 1): the
// ⟨addr, val⟩ pair the published pc's logged store lives in.
func (t *Thread) jdRec(buf int) uint64 { return t.Extra() + xJDRec + uint64(buf)*nvm.LineSize }

// ErrCrashed is returned by Call when the device's injected crash fired.
var ErrCrashed = fmt.Errorf("vm: injected crash")

// Machine executes one compiled program on one region.
type Machine struct {
	Reg  *region.Region
	LM   *locks.Manager
	Prog *compile.Compiled
	Mode Mode

	// legacy, when set, runs code in place of exec: this package's tests
	// plug the tree-walking interpreter in here as the differential oracle.
	legacy func(t *Thread, f *ir.Func, block, idx, stopAtDepth int) []uint64

	funcNames []string
	code      map[string]*compile.DecodedFunc

	registry persist.Threads[*Thread] // a spare is a thread the last Recover adopted; the mutex also guards threads
	threads  []*Thread                // for Trace, in registration order
}

// New creates a machine. The program must come from compile.Program so
// region IDs resolve. Functions are numbered in sorted name order — the
// same order compile.Program uses — so the pre-decoded code it attached
// can be used as-is; a program assembled by hand (or through compile.Func
// directly) is decoded here.
func New(reg *region.Region, lm *locks.Manager, prog *compile.Compiled, mode Mode) *Machine {
	m := &Machine{
		Reg: reg, LM: lm, Prog: prog, Mode: mode,
		code: map[string]*compile.DecodedFunc{},
	}
	for name := range prog.Funcs {
		m.funcNames = append(m.funcNames, name)
	}
	sort.Strings(m.funcNames)
	for i, n := range m.funcNames {
		cf := prog.Funcs[n]
		if cf.Code != nil && cf.Code.FnIdx == i {
			m.code[n] = cf.Code
			continue
		}
		d, err := compile.DecodeFunc(cf.F, i)
		if err != nil {
			panic(fmt.Sprintf("vm: %v", err))
		}
		m.code[n] = d
	}
	return m
}

// SetCrashBudget arms crash injection on the machine's device: after n
// more device events every thread using the device dies at its next
// event or lock wait, and Call returns ErrCrashed. Negative disables
// injection.
func (m *Machine) SetCrashBudget(n int64) { m.Reg.Dev.ArmLocalCrash(n) }

// Stats returns aggregated execution statistics (call while quiescent).
func (m *Machine) Stats() persist.RuntimeStats { return m.registry.Stats() }

// Trace returns the collected OpPrint output: threads in registration
// order, program order within each thread. Each thread appends to its
// own buffer during execution — there is no global trace lock — so like
// Stats this merge is meaningful only while the machine is quiescent.
func (m *Machine) Trace() []uint64 {
	m.registry.Lock()
	defer m.registry.Unlock()
	var out []uint64
	for _, t := range m.threads {
		out = append(out, t.trace...)
	}
	return out
}

// Thread is one VM execution context: its persistent log, its NVM stack
// frame and its volatile register file.
type Thread struct {
	idolog.Log
	m *Machine

	frame, sp uint64
	rf        [MaxRegs]uint64

	originDepth int // ModeOrigin keeps no log: locks held plus open durable sections

	outs       []persist.RegVal // iDO: boundary output scratch
	dirtySlots []uint64         // JUSTDO: slot lines written outside FASEs
	jdBuf      int              // JUSTDO: active ⟨addr, val⟩ record buffer

	// retBuf is the reusable return-value buffer DRet fills; the slice
	// Call hands back aliases it and is valid until the thread's next
	// Call. Sized to the largest ret arity at first use, it removes the
	// one allocation the dispatch loop had.
	retBuf []uint64

	trace []uint64 // OpPrint output, merged by Machine.Trace
}

const frameSize = 4096

// NewThread registers an execution context: its NVM stack frame and its
// log, one register slot per virtual register and one for the stack
// pointer, on the region's log list. A thread Recover adopted goes first,
// oldest log first, with the frame its log names, so a restart allocates
// neither.
func (m *Machine) NewThread() (*Thread, error) {
	m.registry.Lock()
	defer m.registry.Unlock()
	dev := m.Reg.Dev
	t, reused := m.registry.Take()
	if reused {
		t.Reuse(m.name())
		t.frame = dev.Load64(t.Extra() + xFrame)
	}
	// A reused log names no frame when its creator died between linking
	// it and the fence below (Create zeroes the word); that frame is lost
	// with the crash, and this thread gets a new one like a new log.
	if !reused || t.frame == 0 {
		frame, err := m.Reg.Alloc.Alloc(frameSize)
		if err != nil {
			return nil, fmt.Errorf("vm: allocating stack frame: %w", err)
		}
		if !reused {
			t = &Thread{m: m}
			if err := t.Create(m.Reg, m.name(), m.registry.Next(), MaxRegs+1, 8, extraSize, m.Mode == ModeJUSTDO); err != nil {
				return nil, err
			}
			m.registry.Add(t.ID(), &t.Stats)
			m.threads = append(m.threads, t)
		}
		// The frame base only matters to a resumed FASE, and none can
		// publish before this fence.
		t.frame = frame
		dev.Store64(t.Extra()+xFrame, frame)
		dev.CLWB(t.Extra() + xFrame)
		dev.Fence()
	}
	t.sp = t.frame
	return t, nil
}

// name labels the machine's audits and trace rings.
func (m *Machine) name() string { return "vm-" + m.Mode.String() }

// Call executes fn with the given arguments. It returns the values of a
// ret instruction, or ErrCrashed if the device's injected crash fired
// mid-run.
// The returned slice aliases a per-thread buffer and is valid until this
// thread's next Call or Resume; copy it to retain values longer.
func (t *Thread) Call(fn string, args ...uint64) (rets []uint64, err error) {
	d, ok := t.m.code[fn]
	if !ok {
		return nil, fmt.Errorf("vm: no function %q", fn)
	}
	if d.NumRegs > MaxRegs {
		return nil, fmt.Errorf("vm: %s uses %d registers (max %d)", fn, d.NumRegs, MaxRegs)
	}
	if len(args) != d.NumParams {
		return nil, fmt.Errorf("vm: %s wants %d args, got %d", fn, d.NumParams, len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(nvm.CrashSignal); is {
				err = ErrCrashed
				return
			}
			panic(r)
		}
	}()
	// Parameters and the stack pointer go through def/setSP, not raw rf
	// writes: under JUSTDO they are FASE-live state that replay restores
	// from the NVM register slots, and a param only ever assigned here
	// would otherwise replay as the slot's stale (or zero) value.
	for i, a := range args {
		t.def(0, ir.Reg(i), a)
	}
	t.setSP(0, t.frame)
	if run := t.m.legacy; run != nil {
		return run(t, t.m.Prog.Funcs[fn].F, 0, 0, -1), nil
	}
	return t.exec(d, 0, -1), nil
}

// valA and valB read a pre-classified operand: the decoded field is the
// value itself for immediates, a register index otherwise.
func (t *Thread) valA(in *compile.DInstr) uint64 {
	if in.AImm {
		return in.A
	}
	return t.rf[in.A]
}

func (t *Thread) valB(in *compile.DInstr) uint64 {
	if in.BImm {
		return in.B
	}
	return t.rf[in.B]
}

// exec runs the threaded-code stream from flat offset pc. If stopAtDepth
// >= 0, execution stops once the FASE depth drops to stopAtDepth (the
// recovery path: "execute to the end of the current FASE"). Returns ret
// values.
//
// Event equivalence with the tree-walking oracle: one DInstr per ir
// instruction, and the handlers call the same protocol helpers —
// fall-through edges, which execute no instruction in either engine, are
// the only control transfers that differ in mechanism (stream adjacency
// here, Succs[0] there).
func (t *Thread) exec(d *compile.DecodedFunc, pc int, stopAtDepth int) []uint64 {
	dev := t.m.Reg.Dev
	code := d.Code
	for {
		in := &code[pc]
		switch in.Op {
		case compile.DConst:
			t.def(in.PC, ir.Reg(in.Dest), in.Imm)
		case compile.DMov:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in))
		case compile.DAdd:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)+t.valB(in))
		case compile.DSub:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)-t.valB(in))
		case compile.DMul:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)*t.valB(in))
		case compile.DDiv:
			b := t.valB(in)
			if b == 0 {
				panic("vm: division by zero")
			}
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)/b)
		case compile.DMod:
			b := t.valB(in)
			if b == 0 {
				panic("vm: division by zero")
			}
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)%b)
		case compile.DAnd:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)&t.valB(in))
		case compile.DOr:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)|t.valB(in))
		case compile.DXor:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)^t.valB(in))
		case compile.DShl:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)<<(t.valB(in)&63))
		case compile.DShr:
			t.def(in.PC, ir.Reg(in.Dest), t.valA(in)>>(t.valB(in)&63))
		case compile.DEq:
			t.def(in.PC, ir.Reg(in.Dest), b2i(t.valA(in) == t.valB(in)))
		case compile.DNe:
			t.def(in.PC, ir.Reg(in.Dest), b2i(t.valA(in) != t.valB(in)))
		case compile.DLt:
			t.def(in.PC, ir.Reg(in.Dest), b2i(t.valA(in) < t.valB(in)))
		case compile.DLe:
			t.def(in.PC, ir.Reg(in.Dest), b2i(t.valA(in) <= t.valB(in)))
		case compile.DGt:
			t.def(in.PC, ir.Reg(in.Dest), b2i(t.valA(in) > t.valB(in)))
		case compile.DGe:
			t.def(in.PC, ir.Reg(in.Dest), b2i(t.valA(in) >= t.valB(in)))
		case compile.DLoad:
			t.def(in.PC, ir.Reg(in.Dest), dev.Load64(t.rf[in.A]+in.Imm))
		case compile.DStore:
			t.store(in.PC, t.rf[in.A]+in.Imm, t.valB(in))
		case compile.DBr:
			if t.valA(in) != 0 {
				pc = int(in.T0)
			} else {
				pc = int(in.T1)
			}
			continue
		case compile.DJmp:
			pc = int(in.T0)
			continue
		case compile.DRet:
			if cap(t.retBuf) < len(in.Vals) {
				t.retBuf = make([]uint64, len(in.Vals))
			}
			out := t.retBuf[:len(in.Vals)]
			for i, a := range in.Vals {
				if a.IsImm {
					out[i] = a.Imm
				} else {
					out[i] = t.rf[a.Reg]
				}
			}
			return out
		case compile.DAlloc:
			p, err := t.m.Reg.Alloc.Alloc(int(t.valA(in)))
			if err != nil {
				panic(fmt.Sprintf("vm: %s: %v", d.Name, err))
			}
			t.def(in.PC, ir.Reg(in.Dest), p)
		case compile.DSAlloc:
			n := (t.valA(in) + 7) &^ 7
			if t.sp+n > t.frame+frameSize {
				panic(fmt.Sprintf("vm: %s: stack overflow", d.Name))
			}
			p := t.sp
			t.setSP(in.PC, t.sp+n)
			t.def(in.PC, ir.Reg(in.Dest), p)
		case compile.DNewLock:
			l, err := t.m.LM.Create()
			if err != nil {
				panic(fmt.Sprintf("vm: %s: %v", d.Name, err))
			}
			t.def(in.PC, ir.Reg(in.Dest), l.Holder())
		case compile.DLock:
			t.lock(t.m.LM.ByHolder(t.valA(in)))
		case compile.DUnlock:
			t.unlock(t.m.LM.ByHolder(t.valA(in)))
			if t.depth() == stopAtDepth {
				return nil
			}
		case compile.DBeginDur:
			t.beginDurable()
		case compile.DEndDur:
			t.endDurable()
			if t.depth() == stopAtDepth {
				return nil
			}
		case compile.DBoundary:
			t.boundary(in.Imm, in.Regs)
		case compile.DPrint:
			t.trace = append(t.trace, t.valA(in))
		default:
			panic(fmt.Sprintf("vm: unhandled decoded op %d", in.Op))
		}
		pc++
	}
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// depth is the FASE nesting depth: locks held plus open durable sections.
func (t *Thread) depth() int {
	if t.m.Mode == ModeOrigin {
		return t.originDepth
	}
	return t.Depth()
}

func (t *Thread) inFASE() bool { return t.depth() > 0 }

// def assigns a register. Under JUSTDO inside a FASE, the definition is
// itself a logged, fenced store to the register's NVM slot — the paper's
// "no caching of values in registers" discipline. Outside a FASE the
// slot is still written through (unfenced); the FASE-entry lock operation
// flushes the accumulated dirty slots inside its existing intention
// fence, so everything a FASE reads from pre-FASE registers is already
// in NVM when execution enters the FASE.
func (t *Thread) def(pc uint64, r ir.Reg, v uint64) {
	t.rf[r] = v
	if t.m.Mode == ModeJUSTDO {
		t.defSlot(pc, int(r), v)
	}
}

func (t *Thread) setSP(pc uint64, sp uint64) {
	t.sp = sp
	if t.m.Mode == ModeJUSTDO {
		t.defSlot(pc, MaxRegs, sp)
	}
}

// defSlot writes register r's (MaxRegs: the stack pointer's) NVM slot,
// which a raw log keeps in the base image.
func (t *Thread) defSlot(pc uint64, r int, v uint64) {
	slot := t.RegAddr(r)
	if t.inFASE() {
		t.justdoLoggedStore(pc, slot, v)
		return
	}
	t.m.Reg.Dev.Store64(slot, v)
	line := slot &^ (nvm.LineSize - 1)
	for _, l := range t.dirtySlots {
		if l == line {
			return
		}
	}
	t.dirtySlots = append(t.dirtySlots, line)
}

// flushSlots writes back the register slots dirtied outside FASEs; the
// caller's fence makes them durable before the FASE reads them.
func (t *Thread) flushSlots() {
	for _, line := range t.dirtySlots {
		t.m.Reg.Dev.CLWB(line)
	}
	t.dirtySlots = t.dirtySlots[:0]
}

// store writes persistent data under the active mode's discipline.
func (t *Thread) store(pc uint64, addr, v uint64) {
	switch {
	case t.m.Mode == ModeIDO:
		t.Store64(addr, v)
	case t.m.Mode == ModeJUSTDO && t.inFASE():
		t.justdoLoggedStore(pc, addr, v)
	default:
		t.m.Reg.Dev.Store64(addr, v)
		if t.inFASE() {
			t.Stats.Stores++
		}
	}
}

// justdoLoggedStore implements JUSTDO's per-mutation protocol: persist
// ⟨pc, addr, value⟩, fence, perform the mutation, fence. The ⟨addr, val⟩
// pair goes into the inactive record buffer and is fenced durable before
// a single pc store (carrying the buffer index in jdBufBit) publishes
// it, so a crash at any point exposes either the previous complete
// record or this one — never a torn mix of the two. Replay of the old
// record is idempotent (its mutation already ran) and resuming after its
// pc deterministically re-executes up to this instruction, because every
// register definition is itself a logged store: nothing state-changing
// lies between two records, and re-executed lock/unlock ops are absorbed
// by the recovery guards.
func (t *Thread) justdoLoggedStore(pc, addr, v uint64) {
	dev := t.m.Reg.Dev
	buf := 1 - t.jdBuf
	rec := t.jdRec(buf)
	dev.Store64(rec, addr)
	dev.Store64(rec+8, v)
	dev.CLWB(rec)
	dev.Fence()
	// The record in the inactive buffer is already durable, so the log's
	// single NT store alone decides whether this logged store exists.
	t.Publish(pc | uint64(buf)<<63)
	dev.Fence()
	t.jdBuf = buf
	dev.Store64(addr, v)
	dev.CLWB(addr)
	dev.Fence()
	t.Stats.Stores++
	t.Logged(24)
	t.Stats.Regions++
	t.Stats.StoresPerRegion[1]++
	t.Ring().Emit(obs.KLogAppend, 24, pc)
}

// beginDurable enters a durable section. JUSTDO's FASE entry must find
// every pre-FASE register slot already persistent, so the accumulated
// dirty slot lines are flushed here (the lock path does the same inside
// its intention fence).
func (t *Thread) beginDurable() {
	switch {
	case t.m.Mode == ModeOrigin:
		t.originDepth++
		return
	case t.m.Mode == ModeJUSTDO && !t.inFASE():
		t.flushSlots()
		t.m.Reg.Dev.Fence()
	}
	t.BeginDurable()
}

func (t *Thread) endDurable() {
	if t.m.Mode != ModeOrigin {
		t.EndDurable()
		return
	}
	if t.originDepth == 0 {
		panic("vm: end_durable below depth 0")
	}
	t.originDepth--
}

// boundary hands an OpBoundary's registers to the log, and with them the
// stack pointer whenever it is not where the FASE last logged it (never
// logged: at the frame base, which the log keeps too). Within a FASE it
// only grows, and a resumed region re-allocates its stack slots afresh
// from the value its entry logged.
func (t *Thread) boundary(id uint64, regs []ir.Reg) {
	if t.m.Mode != ModeIDO {
		return
	}
	out := t.outs[:0]
	for _, r := range regs {
		out = append(out, persist.RV(int(r), t.rf[r]))
	}
	logged := t.Reg(MaxRegs)
	if logged == 0 {
		logged = t.frame
	}
	if t.sp != logged {
		out = append(out, persist.RV(MaxRegs, t.sp))
	}
	t.outs = out
	t.Boundary(id, out...)
}

// lock acquires l and records it in the thread's log. JUSTDO first
// persists its intention to acquire, with the pre-FASE register slots
// under the same fence, and fences the record at once.
func (t *Thread) lock(l *locks.Lock) {
	if t.m.Mode == ModeOrigin {
		l.Acquire()
		t.originDepth++
		return
	}
	if t.Reacquired(l) {
		return
	}
	dev, intent := t.m.Reg.Dev, t.Extra()+xIntent
	if t.m.Mode == ModeJUSTDO {
		dev.Store64(intent, l.Holder())
		dev.CLWB(intent)
		t.flushSlots()
		dev.Fence()
	}
	l.Acquire()
	t.Acquired(l)
	if t.m.Mode == ModeJUSTDO {
		dev.Store64(intent, 0)
		t.Fence()
	}
}

// unlock releases l under the log's rules: the FASE's final release makes
// its data durable and clears recovery_pc before the slot is dropped and
// the mutex released. JUSTDO persists its intention first.
func (t *Thread) unlock(l *locks.Lock) {
	if t.m.Mode == ModeOrigin {
		if t.originDepth--; t.originDepth == 0 {
			t.Stats.FASEs++
		}
		l.Release()
		return
	}
	if t.m.Mode == ModeJUSTDO && !t.Released(l) {
		dev, intent := t.m.Reg.Dev, t.Extra()+xIntent
		dev.Store64(intent, l.Holder())
		dev.CLWB(intent)
		dev.Fence()
		dev.Store64(intent, 0)
	}
	t.Unlock(l)
}
