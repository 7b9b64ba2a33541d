// Package ir defines the mini intermediate representation the iDO
// compiler pipeline operates on: non-SSA three-address code over unlimited
// virtual registers, organized into basic blocks with an explicit CFG.
// Functions are written in a small textual syntax (see Parse) and
// processed by the analyses in internal/dataflow, internal/alias,
// internal/fase, and internal/idem, then instrumented by internal/compile
// and executed by internal/vm against simulated NVM.
//
// All values are 64-bit words. Memory operands are NVM byte addresses held
// in registers, with small constant offsets on load/store, which is what
// the basicAA-style alias analysis disambiguates.
package ir

import (
	"fmt"
	"strings"
)

// Reg is a virtual register index within a function.
type Reg int

// NoReg marks an absent destination register.
const NoReg Reg = -1

// Op enumerates instruction opcodes.
type Op int

// Opcodes. Arithmetic ops take two register-or-immediate operands;
// comparison ops yield 0 or 1.
const (
	OpConst Op = iota // dest = imm
	OpMov             // dest = src
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt // unsigned <
	OpLe
	OpGt
	OpGe
	OpLoad    // dest = mem[a0 + imm offset]
	OpStore   // mem[a0 + imm offset] = a1
	OpAlloc   // dest = nv_malloc(a0) — persistent heap allocation
	OpSAlloc  // dest = address of an NVM stack slot of a0 bytes
	OpNewLock // dest = holder address of a freshly created indirect lock
	OpLock    // lock the mutex whose holder address is a0
	OpUnlock  // unlock the mutex whose holder address is a0
	OpBeginDur
	OpEndDur
	OpBr    // if a0 != 0 goto Targets[0] else Targets[1]
	OpJmp   // goto Targets[0]
	OpRet   // return a0... (0 or more)
	OpPrint // debugging aid: emit a0 to the VM trace

	// OpBoundary is inserted by the iDO compiler at idempotent-region
	// boundaries. Imm holds the region ID; Args list the registers whose
	// logged slots may be stale and must be (re)logged if live (the
	// region's input set intersected with the predecessors' defs).
	OpBoundary
)

var opNames = map[Op]string{
	OpConst: "const", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpMod: "mod", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpEq: "eq", OpNe: "ne", OpLt: "lt",
	OpLe: "le", OpGt: "gt", OpGe: "ge", OpLoad: "load", OpStore: "store",
	OpAlloc: "alloc", OpSAlloc: "salloc", OpNewLock: "newlock",
	OpLock: "lock", OpUnlock: "unlock",
	OpBeginDur: "begin_durable", OpEndDur: "end_durable", OpBr: "br",
	OpJmp: "jmp", OpRet: "ret", OpPrint: "print", OpBoundary: "boundary",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsArith reports whether o is a pure register-to-register computation.
func (o Op) IsArith() bool { return o >= OpMov && o <= OpGe }

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpJmp || o == OpRet }

// Value is a register or immediate operand.
type Value struct {
	IsImm bool
	Imm   uint64
	Reg   Reg
}

// R makes a register operand.
func R(r Reg) Value { return Value{Reg: r} }

// Imm makes an immediate operand.
func Imm(v uint64) Value { return Value{IsImm: true, Imm: v} }

func (v Value) String() string {
	if v.IsImm {
		return fmt.Sprintf("%d", v.Imm)
	}
	return fmt.Sprintf("r%d", int(v.Reg))
}

// Instr is one three-address instruction.
type Instr struct {
	Op      Op
	Dest    Reg     // NoReg when the op produces no value
	Args    []Value // operand list
	Imm     uint64  // load/store offset, boundary region ID
	Targets []int   // successor block indices (br: [then, else]; jmp: [t])
}

func (in *Instr) String() string {
	var b strings.Builder
	if in.Dest != NoReg {
		fmt.Fprintf(&b, "r%d = ", int(in.Dest))
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConst:
		fmt.Fprintf(&b, " %d", in.Imm)
	case OpLoad:
		fmt.Fprintf(&b, " %s %d", in.Args[0], in.Imm)
	case OpStore:
		fmt.Fprintf(&b, " %s %d %s", in.Args[0], in.Imm, in.Args[1])
	case OpBr:
		fmt.Fprintf(&b, " %s b%d b%d", in.Args[0], in.Targets[0], in.Targets[1])
	case OpJmp:
		fmt.Fprintf(&b, " b%d", in.Targets[0])
	case OpBoundary:
		fmt.Fprintf(&b, " %#x", in.Imm)
		for _, a := range in.Args {
			fmt.Fprintf(&b, " %s", a)
		}
	default:
		for _, a := range in.Args {
			fmt.Fprintf(&b, " %s", a)
		}
	}
	return b.String()
}

// Block is a basic block.
type Block struct {
	Index  int
	Name   string
	Instrs []Instr
	Succs  []int
	Preds  []int
}

// Func is a function: parameters arrive in registers 0..NumParams-1.
type Func struct {
	Name      string
	NumParams int
	NumRegs   int
	Blocks    []*Block
	RegNames  map[Reg]string // for printing; may be nil
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// BuildCFG recomputes successor and predecessor edges from terminators.
// Blocks without an explicit terminator fall through to the next block.
func (f *Func) BuildCFG() {
	for _, b := range f.Blocks {
		b.Succs = b.Succs[:0]
		b.Preds = b.Preds[:0]
	}
	for i, b := range f.Blocks {
		if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsTerminator() {
			last := &b.Instrs[n-1]
			if last.Op != OpRet {
				b.Succs = append(b.Succs, last.Targets...)
			}
		} else if i+1 < len(f.Blocks) {
			b.Succs = append(b.Succs, i+1)
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, b.Index)
		}
	}
}

// String renders the function in parseable textual form.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s %d {\n", f.Name, f.NumParams)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for i := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", printInstr(f, blk, &blk.Instrs[i]))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func printInstr(f *Func, _ *Block, in *Instr) string {
	s := in.String()
	// Replace block indices with labels for br/jmp.
	switch in.Op {
	case OpBr:
		return fmt.Sprintf("br %s %s %s", in.Args[0],
			f.Blocks[in.Targets[0]].Name, f.Blocks[in.Targets[1]].Name)
	case OpJmp:
		return fmt.Sprintf("jmp %s", f.Blocks[in.Targets[0]].Name)
	}
	return s
}

// Program is a set of functions by name.
type Program struct {
	Funcs map[string]*Func
}

// Loc addresses one instruction within a function.
type Loc struct {
	Block int
	Index int
}

// Less orders locations by block then index (not an execution order; used
// for deterministic iteration).
func (l Loc) Less(o Loc) bool {
	if l.Block != o.Block {
		return l.Block < o.Block
	}
	return l.Index < o.Index
}

func (l Loc) String() string { return fmt.Sprintf("b%d.%d", l.Block, l.Index) }
