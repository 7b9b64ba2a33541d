package vm

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// twinSrc is TestCoreAndVMPayTheSame's FASE as instrumented straight-line
// IR: r0 and r1 are the outer and inner lock holders, r2 the data.
const twinSrc = `
func twin 3 {
entry:
  lock r0
  boundary 0x901 r2
  x = load r2 0
  boundary 0x902 x
  y = add x 1
  boundary 0x903 y
  store r2 0 y
  boundary 0x904 y
  store r2 8 y
  lock r1
  boundary 0x905
  store r2 16 y
  boundary 0x906
  unlock r1
  store r2 24 y
  boundary 0x907
  unlock r0
  ret
}
`

// TestCoreAndVMPayTheSame drives one scripted FASE — lock, two store-free
// prefix boundaries, the first store, a post-publish boundary and its
// store, a nested lock with a store under it, its inner release, a last
// store and the final unlock — through core.Thread and through its IR twin
// on a vm.Thread, and requires identical persist-fence and NT-store
// counts: there is one log protocol, and both engines only drive it.
func TestCoreAndVMPayTheSame(t *testing.T) {
	type world struct {
		reg          *region.Region
		lm           *locks.Manager
		outer, inner *locks.Lock
		data         uint64
	}
	newWorld := func() world {
		reg := region.Create(1<<20, nvm.Config{})
		w := world{reg: reg, lm: locks.NewManager(reg)}
		var err error
		if w.outer, err = w.lm.Create(); err != nil {
			t.Fatal(err)
		}
		if w.inner, err = w.lm.Create(); err != nil {
			t.Fatal(err)
		}
		if w.data, err = reg.Alloc.Alloc(32); err != nil {
			t.Fatal(err)
		}
		return w
	}
	delta := func(w world, run func()) (fences, nt uint64) {
		before := w.reg.Dev.Stats()
		run()
		after := w.reg.Dev.Stats()
		return after.Fences - before.Fences, after.NTStores - before.NTStores
	}

	cw := newWorld()
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(cw.reg, cw.lm); err != nil {
		t.Fatal(err)
	}
	ct, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	coreF, coreNT := delta(cw, func() {
		ct.Lock(cw.outer)
		ct.Boundary(0x901, persist.RV(2, cw.data))
		x := ct.Load64(cw.data)
		ct.Boundary(0x902, persist.RV(3, x))
		y := x + 1
		ct.Boundary(0x903, persist.RV(4, y))
		ct.Store64(cw.data, y)
		ct.Boundary(0x904, persist.RV(4, y))
		ct.Store64(cw.data+8, y)
		ct.Lock(cw.inner)
		ct.Boundary(0x905)
		ct.Store64(cw.data+16, y)
		ct.Boundary(0x906)
		ct.Unlock(cw.inner)
		ct.Store64(cw.data+24, y)
		ct.Boundary(0x907)
		ct.Unlock(cw.outer)
	})

	vw := newWorld()
	prog, err := ir.Parse(twinSrc)
	if err != nil {
		t.Fatal(err)
	}
	twin := &compile.Compiled{Funcs: map[string]*compile.CompiledFunc{"twin": {F: prog.Funcs["twin"], Index: -1}}}
	vt, err := New(vw.reg, vw.lm, twin, ModeIDO).NewThread()
	if err != nil {
		t.Fatal(err)
	}
	vmF, vmNT := delta(vw, func() {
		if _, err := vt.Call("twin", vw.outer.Holder(), vw.inner.Holder(), vw.data); err != nil {
			t.Fatal(err)
		}
	})

	if coreF != vmF || coreNT != vmNT {
		t.Fatalf("core paid %d fences and %d NT stores, the VM %d and %d", coreF, coreNT, vmF, vmNT)
	}
	// Publish at the first store, 0x904 at the second, 0x905 at the third,
	// 0x906 at the inner release, pc clear: 5 NT stores. Each publish costs
	// its record fence and the fence its region's first store (or the slot
	// clear) settles; the inner release and the FASE's end add theirs.
	if coreF != 11 || coreNT != 5 {
		t.Fatalf("the scripted FASE cost %d fences and %d NT stores, want 11 and 5", coreF, coreNT)
	}
	for i := uint64(0); i < 4; i++ {
		if c, v := cw.reg.Dev.Load64(cw.data+8*i), vw.reg.Dev.Load64(vw.data+8*i); c != 1 || v != 1 {
			t.Fatalf("word %d: core %d, VM %d, want 1", i, c, v)
		}
	}
}

// churnSrc is one FASE whose every iteration cuts (the load of [r0+8] is
// antidependent on the store that follows), logs its loop registers and
// stores: r1 iterations append well over the record area's 64 pairs.
const churnSrc = `
func churn 2 {
entry:
  lk = load r0 0
  lock lk
  i = const 0
  acc = const 1
  jmp loop
loop:
  c = lt i r1
  br c body done
body:
  v = load r0 8
  acc = add acc v
  acc = mul acc 3
  i = add i 1
  store r0 8 acc
  jmp loop
done:
  store r0 16 acc
  unlock lk
  ret acc
}
`

// TestVMCompactionSweep crashes a compiled kernel whose FASE overflows the
// log's record area, at EVERY device event of the call and under all three
// adversaries, and requires each recovery to land on the state the
// persist-all adversary gives for the same crash point: the untouched
// cells before the FASE published, the completed FASE after. The sweep
// must have seen the base image live, i.e. have crossed a compaction.
func TestVMCompactionSweep(t *testing.T) {
	const iters = 40
	prog, err := ir.Parse(churnSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compile.Program(prog, compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// setup builds the structure ([0] lock holder, [8] and [16] cells) and
	// a thread; run calls the kernel with k device events to live.
	setup := func() (*region.Region, *Thread) {
		reg := region.Create(1<<16, nvm.Config{})
		lm := locks.NewManager(reg)
		l, err := lm.Create()
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := reg.Alloc.Alloc(24)
		if err != nil {
			t.Fatal(err)
		}
		reg.Dev.Store64(hdr, l.Holder())
		reg.Dev.Store64(hdr+8, 2)
		reg.Dev.PersistRange(hdr, 24)
		reg.Dev.Fence()
		reg.SetRoot(1, hdr)
		th, err := New(reg, lm, c, ModeIDO).NewThread()
		if err != nil {
			t.Fatal(err)
		}
		return reg, th
	}
	run := func(reg *region.Region, th *Thread, k int64) (crashed bool) {
		defer func() {
			reg.Dev.ArmLocalCrash(-1)
			if r := recover(); r != nil {
				if _, ok := r.(nvm.CrashSignal); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		reg.Dev.ArmLocalCrash(k)
		_, err := th.Call("churn", reg.Root(1), iters)
		if err != nil && err != ErrCrashed {
			t.Fatal(err)
		}
		return err == ErrCrashed
	}

	reg, th := setup()
	const huge = int64(1) << 40
	reg.Dev.ArmLocalCrash(huge)
	if _, err := th.Call("churn", reg.Root(1), iters); err != nil {
		t.Fatal(err)
	}
	events := huge - reg.Dev.LocalCrashBudgetRemaining()
	reg.Dev.ArmLocalCrash(-1)
	done := [2]uint64{reg.Dev.Load64(reg.Root(1) + 8), reg.Dev.Load64(reg.Root(1) + 16)}
	if done[0] != done[1] || done[0] == 2 {
		t.Fatalf("the kernel left cells %v", done)
	}

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	compacted := 0
	for k := int64(0); k < events; k += stride {
		var oracle [2]uint64
		for _, mode := range []nvm.CrashMode{nvm.CrashPersistAll, nvm.CrashDiscard, nvm.CrashRandom} {
			reg, th := setup()
			if !run(reg, th, k) {
				t.Fatalf("event %d of %d: the crash never fired", k, events)
			}
			if logs, err := idolog.Inspect(reg); err != nil {
				t.Fatalf("event %d: %v", k, err)
			} else if mode == nvm.CrashPersistAll && logs[0].BaseValid {
				compacted++
			}
			reg2, err := reg.Crash(mode, rand.New(rand.NewSource(k)))
			if err != nil {
				t.Fatal(err)
			}
			lm2 := locks.NewManager(reg2)
			if _, err := New(reg2, lm2, c, ModeIDO).Recover(); err != nil {
				t.Fatalf("event %d mode %v: recover: %v", k, mode, err)
			}
			hdr := reg2.Root(1)
			got := [2]uint64{reg2.Dev.Load64(hdr + 8), reg2.Dev.Load64(hdr + 16)}
			if mode == nvm.CrashPersistAll {
				oracle = got
				if got != done && got != [2]uint64{2, 0} {
					t.Fatalf("event %d: persist-all recovers to %v; want untouched [2 0] or completed %v", k, got, done)
				}
			} else if got != oracle {
				t.Fatalf("event %d mode %v: recovered to %v, the persist-all oracle to %v", k, mode, got, oracle)
			}
			if l := lm2.ByHolder(reg2.Dev.Load64(hdr)); !l.TryAcquire() {
				t.Fatalf("event %d mode %v: lock still held after recovery", k, mode)
			}
		}
	}
	t.Logf("%d forward events, %d crash points with the base image live", events, compacted)
	if compacted == 0 {
		t.Fatalf("no crash point over %d events left the base image live: the kernel never compacted", events)
	}
}
