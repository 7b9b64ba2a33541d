// The legacy tree-walking interpreter, kept as the differential oracle
// for the threaded-code engine (useLegacy plugs it into a Machine). It walks
// ir.Func blocks directly, re-deriving per instruction everything the
// decoder precomputes — operand classification, jump resolution, packed
// recovery pcs — but calls the same protocol helpers in the same order,
// so its device event stream and crash-injection points are identical to
// exec()'s. equiv_test.go and the fuzz differentials hold the two
// engines to that.
package vm

import (
	"fmt"
	"sort"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ir"
)

// useLegacy makes m run code on the tree-walking interpreter.
func (m *Machine) useLegacy(on bool) {
	if on {
		m.legacy = (*Thread).runLegacy
	}
}

// runLegacy interprets f starting at (block, idx) by walking the block
// structure. Semantics of stopAtDepth match exec.
func (t *Thread) runLegacy(f *ir.Func, block, idx, stopAtDepth int) []uint64 {
	dev := t.m.Reg.Dev
	fnIdx := sort.SearchStrings(t.m.funcNames, f.Name)
	val := func(v ir.Value) uint64 {
		if v.IsImm {
			return v.Imm
		}
		return t.rf[v.Reg]
	}
	for {
		b := f.Blocks[block]
		if idx >= len(b.Instrs) {
			// Fall through.
			if len(b.Succs) != 1 {
				panic(fmt.Sprintf("vm: %s: block %s ends without terminator", f.Name, b.Name))
			}
			block, idx = b.Succs[0], 0
			continue
		}
		in := &b.Instrs[idx]
		pc := compile.PackPC(fnIdx, block, idx)
		switch in.Op {
		case ir.OpConst:
			t.def(pc, in.Dest, in.Imm)
		case ir.OpMov:
			t.def(pc, in.Dest, val(in.Args[0]))
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd,
			ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe,
			ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			t.def(pc, in.Dest, arith(in.Op, val(in.Args[0]), val(in.Args[1])))
		case ir.OpLoad:
			t.def(pc, in.Dest, dev.Load64(t.rf[in.Args[0].Reg]+in.Imm))
		case ir.OpStore:
			t.store(pc, t.rf[in.Args[0].Reg]+in.Imm, val(in.Args[1]))
		case ir.OpAlloc:
			p, err := t.m.Reg.Alloc.Alloc(int(val(in.Args[0])))
			if err != nil {
				panic(fmt.Sprintf("vm: %s: %v", f.Name, err))
			}
			t.def(pc, in.Dest, p)
		case ir.OpNewLock:
			l, err := t.m.LM.Create()
			if err != nil {
				panic(fmt.Sprintf("vm: %s: %v", f.Name, err))
			}
			t.def(pc, in.Dest, l.Holder())
		case ir.OpSAlloc:
			n := (val(in.Args[0]) + 7) &^ 7
			if t.sp+n > t.frame+frameSize {
				panic(fmt.Sprintf("vm: %s: stack overflow", f.Name))
			}
			p := t.sp
			t.setSP(pc, t.sp+n)
			t.def(pc, in.Dest, p)
		case ir.OpLock:
			t.lock(t.m.LM.ByHolder(val(in.Args[0])))
		case ir.OpUnlock:
			t.unlock(t.m.LM.ByHolder(val(in.Args[0])))
			if t.depth() == stopAtDepth {
				return nil
			}
		case ir.OpBeginDur:
			t.beginDurable()
		case ir.OpEndDur:
			t.endDurable()
			if t.depth() == stopAtDepth {
				return nil
			}
		case ir.OpBoundary:
			regs := make([]ir.Reg, len(in.Args))
			for i, a := range in.Args {
				regs[i] = a.Reg
			}
			t.boundary(in.Imm, regs)
		case ir.OpPrint:
			t.trace = append(t.trace, val(in.Args[0]))
		case ir.OpBr:
			if val(in.Args[0]) != 0 {
				block, idx = in.Targets[0], 0
			} else {
				block, idx = in.Targets[1], 0
			}
			continue
		case ir.OpJmp:
			block, idx = in.Targets[0], 0
			continue
		case ir.OpRet:
			out := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				out[i] = val(a)
			}
			return out
		default:
			panic(fmt.Sprintf("vm: unhandled op %v", in.Op))
		}
		idx++
	}
}

func arith(op ir.Op, a, b uint64) uint64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpDiv:
		if b == 0 {
			panic("vm: division by zero")
		}
		return a / b
	case ir.OpMod:
		if b == 0 {
			panic("vm: division by zero")
		}
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << (b & 63)
	case ir.OpShr:
		return a >> (b & 63)
	case ir.OpEq:
		return b2i(a == b)
	case ir.OpNe:
		return b2i(a != b)
	case ir.OpLt:
		return b2i(a < b)
	case ir.OpLe:
		return b2i(a <= b)
	case ir.OpGt:
		return b2i(a > b)
	case ir.OpGe:
		return b2i(a >= b)
	}
	panic("vm: not arithmetic")
}
