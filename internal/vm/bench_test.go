package vm

import (
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// Dispatch microbenchmarks. The spin kernel is pure register arithmetic
// and branching — no locks, no persistent protocol — so ModeOrigin over
// it measures the interpreter's per-instruction dispatch cost and
// nothing else (4 instructions per loop iteration). The inc kernel is
// the steady-state iDO hot path: one FASE, two boundaries, one tracked
// store, the lock protocol.
const benchSpinSrc = `
func spin 1 {
entry:
  i = const 0
  acc = const 0
  jmp loop
loop:
  acc = add acc i
  i = add i 1
  c = lt i r0
  br c loop done
done:
  ret acc
}
`

const benchSpinIters = 256

func benchMachine(b *testing.B, src string, mode Mode) (*Machine, *region.Region, *locks.Manager) {
	b.Helper()
	prog, err := ir.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compile.Program(prog, compile.Config{})
	if err != nil {
		b.Fatal(err)
	}
	reg := region.Create(1<<26, nvm.Config{})
	lm := locks.NewManager(reg)
	return New(reg, lm, c, mode), reg, lm
}

// BenchmarkVMDispatchOrigin measures raw decode/dispatch throughput:
// ns/op divided by ~4*benchSpinIters is the per-instruction cost.
func BenchmarkVMDispatchOrigin(b *testing.B) {
	m, _, _ := benchMachine(b, benchSpinSrc, ModeOrigin)
	th, err := m.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Call("spin", benchSpinIters); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(4*benchSpinIters+5), "ns/instr")
}

// BenchmarkVMDispatchIDOInc measures one full iDO FASE (lock, boundary,
// load, add, tracked store, boundary fold, unlock) per op.
func BenchmarkVMDispatchIDOInc(b *testing.B) {
	benchInc(b, ModeIDO)
}

// BenchmarkVMDispatchJUSTDOInc is the same FASE under JUSTDO's
// per-mutation logging.
func BenchmarkVMDispatchJUSTDOInc(b *testing.B) {
	benchInc(b, ModeJUSTDO)
}

func benchInc(b *testing.B, mode Mode) {
	m, reg, lm := benchMachine(b, kernels, mode)
	hdr, err := reg.Alloc.Alloc(24)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lm.Create()
	if err != nil {
		b.Fatal(err)
	}
	reg.Dev.Store64(hdr, l.Holder())
	reg.Dev.PersistRange(hdr, 24)
	reg.Dev.Fence()
	th, err := m.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Call("inc", hdr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMDispatchFig8Push is the Fig. 8 instrumentation workload:
// compiled irprog stack_push in ModeIDO, paired with a pop to keep the
// structure (and the allocator) in steady state.
func BenchmarkVMDispatchFig8Push(b *testing.B) {
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		b.Fatal(err)
	}
	reg := region.Create(1<<26, nvm.Config{})
	lm := locks.NewManager(reg)
	m := New(reg, lm, prog, ModeIDO)
	stk, err := irprog.NewStack(reg, lm)
	if err != nil {
		b.Fatal(err)
	}
	th, err := m.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Call("stack_push", stk, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := th.Call("stack_pop", stk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMCrashArmed measures dispatch with the device's crash
// injection armed (a huge budget that never fires). Crashes are device
// events, so instruction dispatch checks nothing: the spin kernel issues
// no device event and must cost what it costs disarmed.
func BenchmarkVMCrashArmed(b *testing.B) {
	m, _, _ := benchMachine(b, benchSpinSrc, ModeOrigin)
	th, err := m.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	m.SetCrashBudget(1 << 62)
	defer m.SetCrashBudget(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Call("spin", benchSpinIters); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMCrashArmed16 runs the armed spin kernel on 16 VM threads at
// once.
func BenchmarkVMCrashArmed16(b *testing.B) {
	m, _, _ := benchMachine(b, benchSpinSrc, ModeOrigin)
	m.SetCrashBudget(1 << 62)
	defer m.SetCrashBudget(-1)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th, err := m.NewThread()
		if err != nil {
			b.Fatal(err)
		}
		for pb.Next() {
			if _, err := th.Call("spin", benchSpinIters); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVMTrace16 hammers OpPrint from 16 VM threads. Before the
// rewrite every print took the machine-global trace mutex; after, each
// thread appends to its own buffer.
func BenchmarkVMTrace16(b *testing.B) {
	const src = `
func chatty 1 {
entry:
  i = const 0
  jmp loop
loop:
  print i
  i = add i 1
  c = lt i r0
  br c loop done
done:
  ret
}
`
	m, _, _ := benchMachine(b, src, ModeOrigin)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th, err := m.NewThread()
		if err != nil {
			b.Fatal(err)
		}
		for pb.Next() {
			if _, err := th.Call("chatty", 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
