// Package vm executes compiled mini-IR programs against simulated NVM,
// providing what the paper gets from native execution on real hardware:
// the ability to crash at any instruction boundary and to resume — jump to
// a logged program counter with a restored register file — during
// recovery.
//
// Execution is threaded code: compile pre-decodes each function into one
// flat instruction array (resolved jump offsets, pre-classified operands,
// pre-packed recovery pcs — see internal/compile/decode.go), and the
// engine in exec() walks it with a single dense-switch dispatch. The
// original tree-walking interpreter survives in legacy.go, selected by
// Machine.Legacy, as the differential oracle: both engines execute the
// same instructions in the same order, so their device event counts and
// crash-injection points are identical (asserted by equiv_test.go).
//
// Three runtime modes are implemented:
//
//   - ModeOrigin: no instrumentation (crash vulnerable);
//   - ModeIDO: the iDO protocol — OpBoundary instructions log the region's
//     input registers into fixed per-register NVM slots and advance the
//     persistent recovery_pc with two fences; stores inside FASEs are
//     tracked and written back at the next boundary; locks use indirect
//     holders with a single fence (§III);
//   - ModeJUSTDO: JUSTDO logging — every mutation of program state inside
//     a FASE (user stores and register definitions, since JUSTDO forbids
//     register caching) writes a ⟨pc, addr, value⟩ record that is fenced
//     durable before the mutation, costing two fences per mutation, plus
//     two fences per lock operation.
//
// Per-thread logs live in NVM; recovery walks the log list, re-acquires
// locks through the indirect holders, restores the register file, jumps
// to the logged location, and executes forward to the end of the FASE.
package vm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/lineset"
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

// MaxRegs bounds virtual registers per function (slot array size).
const MaxRegs = 120

// Per-thread VM log layout (64-aligned, byte offsets).
const (
	lNext    = 0
	lThread  = 8
	lPC      = 16 // iDO: region ID; JUSTDO: encoded instruction pc. 0 = idle
	lBits    = 24 // lock_array live bitmask
	lSP      = 32 // logged stack pointer
	lFrame   = 40 // stack frame base
	lJDAddr  = 48 // JUSTDO: logged store target (record buffer 0)
	lJDVal   = 56 // JUSTDO: logged store value (record buffer 0)
	lIntent  = 64 // JUSTDO: lock intention slot
	lJDAddr1 = 72 // JUSTDO: record buffer 1 (ping-pong with buffer 0)
	lJDVal1  = 80
	lSlots   = 128
	lLocks   = lSlots + MaxRegs*8
	numLk    = 16
	lStage   = lLocks + numLk*8 // two ping-pong boundary records
	stageCap = 32
	logSize  = lStage + 2*stageCap*16
)

// stageAt returns the base of boundary-record buffer buf (0 or 1).
func stageAt(log uint64, buf int) uint64 { return log + lStage + uint64(buf)*stageCap*16 }

// vmPack packs an iDO region ID, its boundary-record pair count, and the
// active record buffer so one atomic pc write publishes all three
// (compile keeps region IDs < 2^48). Records ping-pong between two
// buffers so the record the current pc points at is never mutated.
func vmPack(regionID uint64, n, buf int) uint64 {
	return regionID | uint64(n)<<48 | uint64(buf)<<56
}

func vmUnpack(pc uint64) (regionID uint64, n, buf int) {
	return pc & (1<<48 - 1), int(pc >> 48 & 0xFF), int(pc >> 56 & 1)
}

// jdBufBit rides in the published JUSTDO pc word (compile.PackPC only
// uses bits 0..62), naming the record buffer the pc refers to.
const jdBufBit = uint64(1) << 63

// jdRecAt returns the base of JUSTDO record buffer buf (0 or 1): the
// ⟨addr, val⟩ pair the published pc's logged store lives in.
func jdRecAt(log uint64, buf int) uint64 {
	if buf == 0 {
		return log + lJDAddr
	}
	return log + lJDAddr1
}

// errCrash unwinds execution when the crash budget hits zero.
type errCrash struct{}

// ErrCrashed is returned by Call and Resume when the injected crash fired.
var ErrCrashed = fmt.Errorf("vm: injected crash")

// Machine executes one compiled program on one region.
type Machine struct {
	Reg  *region.Region
	LM   *locks.Manager
	Prog *compile.Compiled
	Mode Mode
	// Legacy selects the retained tree-walking interpreter instead of
	// the threaded-code engine. Both execute the same instruction
	// sequence with identical device events; legacy exists as the
	// differential-testing oracle and is not optimized.
	Legacy bool

	funcNames []string
	funcIdx   map[string]int
	code      map[string]*compile.DecodedFunc

	crashArmed  atomic.Bool
	crashed     atomic.Bool
	crashBudget atomic.Int64
	crashGen    atomic.Uint64 // bumped by SetCrashBudget to invalidate per-thread allotments

	mu      sync.Mutex
	threads []*Thread
	nextID  int

	stats persist.RuntimeStats
}

// New creates a machine. The program must come from compile.Program so
// region IDs resolve. Functions are numbered in sorted name order — the
// same order compile.Program uses — so the pre-decoded code it attached
// can be used as-is; a program assembled by hand (or through compile.Func
// directly) is decoded here.
func New(reg *region.Region, lm *locks.Manager, prog *compile.Compiled, mode Mode) *Machine {
	m := &Machine{
		Reg: reg, LM: lm, Prog: prog, Mode: mode,
		funcIdx: map[string]int{},
		code:    map[string]*compile.DecodedFunc{},
	}
	for name := range prog.Funcs {
		m.funcNames = append(m.funcNames, name)
	}
	sort.Strings(m.funcNames)
	for i, n := range m.funcNames {
		m.funcIdx[n] = i
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
	m.crashBudget.Store(-1)
	return m
}

// SetCrashBudget arms crash injection: execution aborts with ErrCrashed
// after n more VM events (instructions and persistence protocol phases)
// across ALL threads — once the budget is spent the whole machine is
// "powered off" and every thread dies at its next event, including
// threads blocked on locks. Negative disables injection.
//
// Threads draw down the shared budget in batches of tickBatch events
// (see Thread.tick); bumping crashGen here discards every outstanding
// per-thread allotment so a fresh budget is exact from its first event.
func (m *Machine) SetCrashBudget(n int64) {
	m.crashGen.Add(1)
	if n < 0 {
		m.crashArmed.Store(false)
		m.crashed.Store(false)
		return
	}
	m.crashed.Store(false)
	m.crashBudget.Store(n)
	m.crashArmed.Store(true)
}

// tickBatch is the crash-budget refill granularity: a thread reserves up
// to this many events from the shared budget in one atomic operation.
// The total number of events before the crash fires is unchanged — with
// one thread the crash lands on exactly the same event as a per-event
// counter would — but a thread that stops running (or the power-off
// itself) can strand up to tickBatch-1 reserved events per other thread.
const tickBatch = 32

// tick consumes one crash-budget event. With injection disarmed this is
// a single atomic load; armed, it spends the thread-local allotment and
// refills from the shared budget every tickBatch events.
func (t *Thread) tick() {
	if !t.m.crashArmed.Load() {
		return
	}
	t.tickSlow()
}

func (t *Thread) tickSlow() {
	m := t.m
	if m.crashed.Load() {
		panic(errCrash{})
	}
	if g := m.crashGen.Load(); g != t.tickGen {
		t.tickGen, t.ticks = g, 0
	}
	if t.ticks > 0 {
		t.ticks--
		return
	}
	got := m.crashBudget.Add(-tickBatch) + tickBatch // budget before this refill
	if got > tickBatch {
		got = tickBatch
	}
	if got <= 0 {
		m.crashed.Store(true)
		t.rc.Emit(obs.KCrashInject, uint64(t.id), 0)
		panic(errCrash{})
	}
	t.ticks = got - 1 // this event consumes one of the reserved batch
}

// Stats returns aggregated execution statistics (call while quiescent).
func (m *Machine) Stats() persist.RuntimeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.stats
	for _, t := range m.threads {
		out.Add(&t.stats)
	}
	return out
}

// Trace returns the collected OpPrint output: threads in registration
// order, program order within each thread. Each thread appends to its
// own buffer during execution — there is no global trace lock — so like
// Stats this merge is meaningful only while the machine is quiescent.
func (m *Machine) Trace() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []uint64
	for _, t := range m.threads {
		out = append(out, t.trace...)
	}
	return out
}

// Thread is one VM execution context with its persistent log and NVM
// stack frame.
type Thread struct {
	m   *Machine
	id  int
	log uint64

	frame, sp uint64
	rf        [MaxRegs]uint64

	lockDepth  int
	durDepth   int
	slots      [numLk]uint64
	bits       uint64
	recovering bool

	ticks   int64  // remaining crash-budget allotment
	tickGen uint64 // crashGen the allotment belongs to

	dirty          lineset.Set      // iDO: lines dirtied in the current region
	dirtySlots     []uint64         // JUSTDO: slot lines written outside FASEs
	staged         []persist.RegVal // iDO: current boundary record
	curBuf         int              // iDO: active record buffer
	jdBuf          int              // JUSTDO: active ⟨addr, val⟩ record buffer
	storesInRegion int
	inRegion       bool

	// retBuf is the reusable return-value buffer DRet fills; the slice
	// Call hands back aliases it and is valid until the thread's next
	// Call. Sized to the largest ret arity at first use, it removes the
	// one allocation the dispatch loop had.
	retBuf []uint64

	// rc is this thread's event ring; nil when tracing is off (nil-ring
	// methods are one-compare no-ops).
	rc           *obs.Ring
	curRegion    uint64 // open region's ID, for trace labels
	regionT0     int64  // tracer clock at the open of the current region
	faseT0       int64  // tracer clock at FASE entry
	faseLogBytes uint64 // log payload written during the current FASE

	trace []uint64 // OpPrint output, merged by Machine.Trace

	stats persist.RuntimeStats
}

const frameSize = 4096

// NewThread registers an execution context, allocating its NVM log and
// stack frame and linking the log into the persistent list.
func (m *Machine) NewThread() (*Thread, error) {
	raw, err := m.Reg.Alloc.Alloc(logSize + nvm.LineSize)
	if err != nil {
		return nil, fmt.Errorf("vm: allocating log: %w", err)
	}
	log := (raw + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	frame, err := m.Reg.Alloc.Alloc(frameSize)
	if err != nil {
		return nil, fmt.Errorf("vm: allocating stack frame: %w", err)
	}
	dev := m.Reg.Dev
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	dev.Store64(log+lThread, uint64(id))
	dev.Store64(log+lPC, 0)
	dev.Store64(log+lBits, 0)
	dev.Store64(log+lFrame, frame)
	dev.Store64(log+lNext, m.Reg.Root(region.RootIDOHead))
	dev.PersistRange(log, logSize)
	dev.Fence()
	m.Reg.SetRoot(region.RootIDOHead, log)
	t := &Thread{m: m, id: id, log: log, frame: frame, sp: frame}
	t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("vm-%s/t%d", m.Mode, id))
	m.threads = append(m.threads, t)
	m.mu.Unlock()
	return t, nil
}

// Call executes fn with the given arguments. It returns the values of a
// ret instruction, or ErrCrashed if the injected crash fired mid-run.
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
			if _, is := r.(errCrash); is {
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
	if t.m.Legacy {
		rets = t.runLegacy(t.m.Prog.Funcs[fn].F, 0, 0, -1)
	} else {
		rets = t.exec(d, 0, -1)
	}
	return rets, nil
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
// Event equivalence with the legacy interpreter: one DInstr per ir
// instruction, one tick before each handler, and the handlers call the
// same protocol helpers — fall-through edges, which execute no
// instruction in either engine, are the only control transfers that
// differ in mechanism (stream adjacency here, Succs[0] there).
func (t *Thread) exec(d *compile.DecodedFunc, pc int, stopAtDepth int) []uint64 {
	dev := t.m.Reg.Dev
	code := d.Code
	for {
		in := &code[pc]
		t.tick()
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

func (t *Thread) depth() int { return t.lockDepth + t.durDepth }

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
		t.defSlot(pc, r, v)
	}
}

func (t *Thread) defSlot(pc uint64, r ir.Reg, v uint64) {
	slot := t.log + lSlots + uint64(r)*8
	if t.inFASE() {
		t.justdoLoggedStore(pc, slot, v)
	} else {
		t.m.Reg.Dev.Store64(slot, v)
		t.trackSlot(slot)
	}
}

func (t *Thread) trackSlot(slot uint64) {
	line := slot &^ (nvm.LineSize - 1)
	for _, l := range t.dirtySlots {
		if l == line {
			return
		}
	}
	t.dirtySlots = append(t.dirtySlots, line)
}

func (t *Thread) setSP(pc uint64, sp uint64) {
	t.sp = sp
	if t.m.Mode == ModeJUSTDO {
		if t.inFASE() {
			t.justdoLoggedStore(pc, t.log+lSP, sp)
		} else {
			t.m.Reg.Dev.Store64(t.log+lSP, sp)
			t.trackSlot(t.log + lSP)
		}
	}
}

// store writes persistent data under the active mode's discipline.
func (t *Thread) store(pc uint64, addr, v uint64) {
	dev := t.m.Reg.Dev
	switch {
	case t.m.Mode == ModeJUSTDO && t.inFASE():
		t.justdoLoggedStore(pc, addr, v)
	case t.m.Mode == ModeIDO && t.inFASE():
		dev.Store64(addr, v)
		t.dirty.Add(addr &^ (nvm.LineSize - 1))
		t.storesInRegion++
		t.stats.Stores++
	default:
		dev.Store64(addr, v)
		if t.inFASE() {
			t.stats.Stores++
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
	rec := jdRecAt(t.log, buf)
	dev.Store64(rec, addr)
	dev.Store64(rec+8, v)
	dev.CLWB(rec)
	dev.Fence()
	// Single-event pc publish, for the same adversary-independence reason
	// as the iDO boundary (see Thread.boundary): the record in the
	// inactive buffer is already durable, so the NT store alone decides
	// whether this logged store exists.
	dev.StoreNT(t.log+lPC, pc|uint64(buf)<<63)
	dev.Fence()
	t.jdBuf = buf
	t.tick()
	dev.Store64(addr, v)
	dev.CLWB(addr)
	dev.Fence()
	t.stats.Stores++
	t.stats.LoggedEntries++
	t.stats.LoggedBytes += 24
	t.faseLogBytes += 24
	t.stats.Regions++
	t.stats.StoresPerRegion[1]++
	t.rc.Emit(obs.KLogAppend, 24, pc)
}

// beginDurable enters a durable section. JUSTDO's FASE entry must find
// every pre-FASE register slot already persistent, so the accumulated
// dirty slot lines are flushed here (the lock path does the same inside
// its intention fence).
func (t *Thread) beginDurable() {
	if t.m.Mode == ModeJUSTDO && !t.inFASE() {
		dev := t.m.Reg.Dev
		for _, line := range t.dirtySlots {
			dev.CLWB(line)
		}
		t.dirtySlots = t.dirtySlots[:0]
		dev.Fence()
	}
	if t.rc != nil && t.durDepth == 0 && t.lockDepth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	t.durDepth++
}

// closeRegion accounts for the iDO region that just ended and emits its
// trace span.
func (t *Thread) closeRegion() {
	if !t.inRegion {
		return
	}
	b := t.storesInRegion
	if b >= persist.HistStores {
		b = persist.HistStores - 1
	}
	t.stats.StoresPerRegion[b]++
	t.stats.Regions++
	if t.rc != nil {
		now := t.rc.Clock()
		t.rc.Span(obs.KRegion, t.curRegion, uint64(t.storesInRegion), t.regionT0)
		t.rc.Observe(obs.HRegionNS, uint64(now-t.regionT0))
		t.rc.Observe(obs.HRegionStores, uint64(t.storesInRegion))
	}
	t.inRegion = false
	t.storesInRegion = 0
}

// persistDirty writes back the region's dirty lines (FlushLines charges
// the same per-line event sequence the legacy per-line-CLWB oracle
// produces), orders them with a persist fence, and empties the set.
// With group commit enabled on the device the flush+fence may be merged
// into another thread's batch.
func (t *Thread) persistDirty() {
	t.m.Reg.Dev.PersistBatch(t.dirty.Lines())
	t.dirty.Reset()
}

// boundary implements the iDO three-step protocol for an OpBoundary.
// The new pairs go into a staged record (internal/core has since moved
// to an append-only log, see README.md here) that is
// published atomically with recovery_pc and folded into the fixed
// per-register slots by the NEXT boundary, so a crash between the two
// fences can never clobber a live-in of the still-current region.
// (The stack pointer is staged alongside; restoring a slightly-later sp
// merely wastes frame space, since a resumed region re-allocates its
// stack slots afresh.)
func (t *Thread) boundary(id uint64, regs []ir.Reg) {
	if t.m.Mode != ModeIDO {
		return
	}
	if len(regs) > stageCap {
		panic(fmt.Sprintf("vm: boundary %#x logs %d registers (max %d)", id, len(regs), stageCap))
	}
	dev := t.m.Reg.Dev
	// Close the ending region's statistics.
	t.closeRegion()
	// Step 1a: fold the previous record into the fixed slots.
	for _, s := range t.staged {
		sa := t.log + lSlots + uint64(s.Reg)*8
		dev.Store64(sa, s.Val)
		dev.CLWB(sa)
	}
	t.staged = t.staged[:0]
	// Step 1b: write this boundary's record into the inactive buffer
	// (persist coalescing: pairs pack two to a line), the stack pointer,
	// and the ending region's dirty data lines; fence.
	buf := 1 - t.curBuf
	sb := stageAt(t.log, buf)
	pa := sb
	for _, r := range regs {
		dev.Store64(pa, uint64(r))
		dev.Store64(pa+8, t.rf[r])
		t.staged = append(t.staged, persist.RegVal{Reg: int(r), Val: t.rf[r]})
		pa += 16
	}
	if len(regs) > 0 {
		dev.PersistRange(sb, uint64(len(regs))*16)
	}
	// A single sp word suffices: within a FASE the stack pointer only
	// grows, and resuming with a slightly-later sp merely wastes frame.
	dev.Store64(t.log+lSP, t.sp)
	dev.CLWB(t.log + lSP)
	t.persistDirty() // flush + fence, group-commit batchable
	t.tick()
	// Step 2: publish recovery_pc packed with record size and buffer. A
	// non-temporal store makes the publish a single durable event — a
	// cached store plus write-back would leave a window where the crash
	// adversary decides whether the pc landed, and at a FASE's entry
	// boundary that choice is "FASE never started" vs "FASE resumes",
	// which would break recovery's adversary-independence (§III-C).
	dev.StoreNT(t.log+lPC, vmPack(id, len(regs), buf))
	dev.FenceBatch()
	t.curBuf = buf
	t.stats.LoggedEntries++
	logBytes := uint64(len(regs))*8 + 8
	t.stats.LoggedBytes += logBytes
	t.faseLogBytes += logBytes
	n := len(regs)
	if n >= persist.HistOutputs {
		n = persist.HistOutputs - 1
	}
	t.stats.OutputsPerRegion[n]++
	if t.rc != nil {
		t.rc.Emit(obs.KBoundary, id, uint64(len(regs)))
		t.rc.Observe(obs.HOutputsPerRegion, uint64(len(regs)))
		t.regionT0 = t.rc.Clock()
	}
	t.curRegion = id
	t.storesInRegion = 0
	t.inRegion = true
}

// acquire takes the mutex; with crash injection armed it spins so a
// machine-wide crash also kills threads waiting on locks.
func (t *Thread) acquire(l *locks.Lock) {
	if !t.m.crashArmed.Load() {
		l.Acquire()
		return
	}
	for !l.TryAcquire() {
		if t.m.crashed.Load() {
			panic(errCrash{})
		}
		runtime.Gosched()
	}
}

// slotOf probes only the live holder slots, guided by the bits mask
// (slots[i] != 0 exactly when bit i is set).
func (t *Thread) slotOf(holder uint64) int {
	for m := t.bits; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if t.slots[i] == holder {
			return i
		}
	}
	return -1
}

// freeSlot returns the lowest empty holder slot, or -1 when full.
func (t *Thread) freeSlot() int {
	if i := bits.TrailingZeros64(^t.bits); i < numLk {
		return i
	}
	return -1
}

// lock implements the per-mode acquire protocol.
func (t *Thread) lock(l *locks.Lock) {
	if t.slotOf(l.Holder()) >= 0 {
		if !t.recovering {
			panic("vm: recursive lock outside recovery")
		}
		return
	}
	dev := t.m.Reg.Dev
	if t.m.Mode == ModeJUSTDO {
		dev.Store64(t.log+lIntent, l.Holder())
		dev.CLWB(t.log + lIntent)
		for _, line := range t.dirtySlots {
			dev.CLWB(line)
		}
		t.dirtySlots = t.dirtySlots[:0]
		dev.Fence()
		t.tick()
	}
	t.acquire(l)
	slot := t.freeSlot()
	if slot < 0 {
		panic("vm: lock array overflow")
	}
	t.slots[slot] = l.Holder()
	t.bits |= 1 << uint(slot)
	if t.m.Mode != ModeOrigin {
		sa := t.log + lLocks + uint64(slot)*8
		dev.Store64(sa, l.Holder())
		dev.Store64(t.log+lBits, t.bits)
		if t.m.Mode == ModeJUSTDO {
			dev.Store64(t.log+lIntent, 0)
		}
		dev.CLWB(sa)
		dev.CLWB(t.log + lBits)
		dev.Fence()
	}
	if t.rc != nil {
		if t.lockDepth == 0 && t.durDepth == 0 {
			t.faseT0 = t.rc.Clock()
			t.faseLogBytes = 0
		}
		t.rc.Emit(obs.KLockAcq, l.Holder(), 0)
	}
	t.lockDepth++
}

// unlock implements the per-mode release protocol, with the same
// crash-ordering rules as the native runtime: at the FASE's final release
// the data is fenced durable and recovery_pc cleared before the slot is
// dropped and the mutex released.
func (t *Thread) unlock(l *locks.Lock) {
	slot := t.slotOf(l.Holder())
	if slot < 0 {
		if t.recovering {
			return
		}
		panic("vm: unlocking a lock not held")
	}
	dev := t.m.Reg.Dev
	last := t.lockDepth == 1 && t.durDepth == 0
	if t.m.Mode == ModeJUSTDO {
		dev.Store64(t.log+lIntent, l.Holder())
		dev.CLWB(t.log + lIntent)
		dev.Fence()
		t.tick()
	}
	if last && t.m.Mode != ModeOrigin {
		if t.m.Mode == ModeIDO {
			t.closeRegion()
			t.persistDirty()
			t.tick()
		}
		dev.StoreNT(t.log+lPC, 0)
		dev.FenceBatch()
	}
	t.slots[slot] = 0
	t.bits &^= 1 << uint(slot)
	if t.m.Mode != ModeOrigin {
		sa := t.log + lLocks + uint64(slot)*8
		dev.Store64(sa, 0)
		dev.Store64(t.log+lBits, t.bits)
		if t.m.Mode == ModeJUSTDO {
			dev.Store64(t.log+lIntent, 0)
		}
		dev.CLWB(sa)
		dev.CLWB(t.log + lBits)
		dev.Fence()
	}
	t.rc.Emit(obs.KLockRel, l.Holder(), 0)
	t.lockDepth--
	if last {
		t.stats.FASEs++
		if t.rc != nil {
			t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
			t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
		}
	}
	l.Release()
}

func (t *Thread) endDurable() {
	if t.durDepth == 0 {
		panic("vm: end_durable below depth 0")
	}
	dev := t.m.Reg.Dev
	last := t.durDepth == 1 && t.lockDepth == 0
	if last && t.m.Mode != ModeOrigin {
		if t.m.Mode == ModeIDO {
			t.closeRegion()
			t.persistDirty()
			t.tick()
		}
		dev.StoreNT(t.log+lPC, 0)
		dev.FenceBatch()
		t.stats.FASEs++
	}
	if last && t.rc != nil {
		t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
		t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
	}
	t.durDepth--
}
