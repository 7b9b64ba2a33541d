package idolog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// newLog creates a region and one log of the given register capacity.
func newLog(t *testing.T, regs int) (*region.Region, *locks.Manager, *Log) {
	t.Helper()
	reg := region.Create(1<<20, nvm.Config{})
	l := &Log{}
	if err := l.Create(reg, "test", 0, regs, 8, 0, false); err != nil {
		t.Fatal(err)
	}
	return reg, locks.NewManager(reg), l
}

// recoverOne crashes reg, recovers its single log and returns the
// register file the resume step was handed (nil if nothing resumed). The
// step ends the FASE the way the crashed code would have.
func recoverOne(t *testing.T, reg *region.Region, mode nvm.CrashMode) (*region.Region, []uint64) {
	t.Helper()
	reg2, err := reg.Crash(mode, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	_, err = Recover(reg2, locks.NewManager(reg2), "test", func(id int, pc uint64) (*Log, func([]uint64), error) {
		l := &Log{}
		return l, func(rf []uint64) {
			got = append([]uint64(nil), rf...)
			l.EndDurable()
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg2, got
}

// TestSlotProbe drives the bit-guided lock_array probe through fill,
// out-of-order release, and reuse: slotOf must find every held holder,
// freeSlot must always hand out the lowest empty index, and the
// slots/bits mirrors must stay consistent throughout.
func TestSlotProbe(t *testing.T) {
	_, lm, th := newLog(t, 16)
	var ls []*locks.Lock
	for i := 0; i < NumSlots; i++ {
		l, err := lm.Create()
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
	}

	check := func() {
		t.Helper()
		for i := 0; i < NumSlots; i++ {
			live := th.bits&(1<<uint(i)) != 0
			if live != (th.slots[i] != 0) {
				t.Fatalf("slot %d: bits=%v slots=%#x disagree", i, live, th.slots[i])
			}
			if th.slots[i] != 0 && th.slotOf(th.slots[i]) != i {
				t.Fatalf("slotOf(%#x) = %d, want %d", th.slots[i], th.slotOf(th.slots[i]), i)
			}
		}
	}

	// Fill all 16 slots.
	for i, l := range ls {
		if got := th.freeSlot(); got != i {
			t.Fatalf("freeSlot before lock %d = %d", i, got)
		}
		th.Lock(l)
		check()
	}
	if th.freeSlot() != -1 || th.Depth() != NumSlots {
		t.Fatalf("full array: freeSlot %d, depth %d", th.freeSlot(), th.Depth())
	}
	for _, l := range ls {
		if th.slotOf(l.Holder()) < 0 {
			t.Fatalf("held lock %#x not found", l.Holder())
		}
	}
	if th.slotOf(0xdeadbeef) != -1 {
		t.Fatal("slotOf of an unheld holder should be -1")
	}

	// Release the even slots; freeSlot must reuse the lowest hole.
	for i := 0; i < NumSlots; i += 2 {
		th.Unlock(ls[i])
		check()
	}
	if got := th.freeSlot(); got != 0 {
		t.Fatalf("freeSlot after releasing slot 0 = %d", got)
	}
	th.Lock(ls[0])
	check()
	if th.slotOf(ls[0].Holder()) != 0 {
		t.Fatal("relock should land in slot 0")
	}
	if got := th.freeSlot(); got != 2 {
		t.Fatalf("next freeSlot = %d, want 2", got)
	}

	// Drain completely.
	th.Unlock(ls[0])
	for i := 1; i < NumSlots; i += 2 {
		th.Unlock(ls[i])
		check()
	}
	if th.bits != 0 || th.Depth() != 0 {
		t.Fatalf("bits = %#x, depth %d after releasing everything", th.bits, th.Depth())
	}
}

// TestCapacityIsReadFromTheLog: a log of 121 registers (the VM's) and one
// of 16 (core's) sit on the same list; Inspect and Recover decode each
// with its own capacity, and a FASE whose prefix logged more registers
// than one record holds publishes through the base image.
func TestCapacityIsReadFromTheLog(t *testing.T) {
	for _, mode := range []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll} {
		reg, _, small := newLog(t, 16)
		cell, err := reg.Alloc.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		big := &Log{}
		if err := big.Create(reg, "test", 1, 121, 8, 0, false); err != nil {
			t.Fatal(err)
		}
		small.BeginDurable()
		small.EndDurable() // idle at the crash

		want := make([]uint64, 121)
		big.BeginDurable()
		for b := 0; b < 3; b++ { // 3 x 40 registers: r120 twice, 119 others once
			var outs []persist.RegVal
			for i := 0; i < 40; i++ {
				r := (b*40 + i) % 120
				if i == 39 {
					r = 120
				}
				want[r] = uint64(1000*b + i + 1)
				outs = append(outs, persist.RV(r, want[r]))
			}
			big.Boundary(uint64(0x700+b), outs...)
		}
		before := reg.Dev.Stats()
		big.Store64(cell, 1)
		if d := reg.Dev.Stats(); d.NTStores-before.NTStores != 1 {
			t.Fatalf("publishing 118 registers took %d NT stores, want the one pc publish over the base image", d.NTStores-before.NTStores)
		}

		logs, err := Inspect(reg)
		if err != nil || len(logs) != 2 {
			t.Fatalf("Inspect: %d logs, %v", len(logs), err)
		}
		if e := logs[0]; e.Regs != 121 || e.RegionID != 0x702 || !e.BaseValid || len(e.Pairs) != 0 || !reflect.DeepEqual(e.RF, want) {
			t.Fatalf("mode %v: the 121-register log decodes to %+v;\nwant region 0x702 over the base image with rf %v", mode, e, want)
		}
		if e := logs[1]; e.Regs != 16 || e.PC != 0 {
			t.Fatalf("mode %v: the idle 16-register log decodes to %+v", mode, e)
		}
		reg2, got := recoverOne(t, reg, mode)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: resume saw %v, want %v", mode, got, want)
		}
		if logs, err := Inspect(reg2); err != nil || logs[0].PC != 0 {
			t.Fatalf("mode %v: after recovery %+v, %v", mode, logs, err)
		}
	}
}

// TestBoundaryPublishIsOwed: a published FASE's boundary costs no device
// event until its region stores; consecutive store-free regions fold into
// one record; a crash in between resumes the last region that stored, and
// a FASE that ends first never pays.
func TestBoundaryPublishIsOwed(t *testing.T) {
	reg, lm, l := newLog(t, 16)
	cell, err := reg.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	l.BeginDurable()
	l.Boundary(0x10, persist.RV(0, 1))
	l.Store64(cell, 1) // publishes 0x10
	before := reg.Dev.Stats()
	l.Boundary(0x11, persist.RV(1, 2))
	l.Boundary(0x12, persist.RV(1, 3), persist.RV(2, 4))
	if d := reg.Dev.Stats(); d.Fences != before.Fences || d.Flushes != before.Flushes || d.NTStores != before.NTStores {
		t.Fatalf("store-free boundaries persisted something: %+v, was %+v", d, before)
	}
	if logs, _ := Inspect(reg); logs[0].RegionID != 0x10 || !reflect.DeepEqual(logs[0].Pairs, []persist.RegVal{{Reg: 0, Val: 1}}) {
		t.Fatalf("before region 0x12 stores the log shows %+v, want region 0x10 and its one pair", logs[0])
	}
	l.Store64(cell, 2)
	after := reg.Dev.Stats()
	if f, nt := after.Fences-before.Fences, after.NTStores-before.NTStores; f != 2 || nt != 1 {
		t.Fatalf("the two owed boundaries cost %d fences and %d NT stores; want one record (1 fence, 1 NT store) and the fence the store settles", f, nt)
	}
	wantPairs := []persist.RegVal{{Reg: 0, Val: 1}, {Reg: 1, Val: 2}, {Reg: 1, Val: 3}, {Reg: 2, Val: 4}}
	if logs, _ := Inspect(reg); logs[0].RegionID != 0x12 || !reflect.DeepEqual(logs[0].Pairs, wantPairs) {
		t.Fatalf("after region 0x12's store the log shows %+v, want region 0x12 over %v", logs[0], wantPairs)
	}
	// An inner release pays the owed boundary first: once lk is released,
	// a resume must not re-run what ran under it.
	lk, err := lm.Create()
	if err != nil {
		t.Fatal(err)
	}
	l.Lock(lk)
	l.Boundary(0x13)
	l.Store64(cell, 3)
	l.Boundary(0x14)
	l.Unlock(lk)
	if logs, _ := Inspect(reg); logs[0].RegionID != 0x14 || len(logs[0].Locks) != 0 {
		t.Fatalf("after the inner release the log shows region %#x holding %#x; want region 0x14, the one the release opens, and no lock", logs[0].RegionID, logs[0].Locks)
	}
	l.Store64(cell, 4)
	after = reg.Dev.Stats()
	// The closing boundary is never paid: the FASE ends on two fences
	// (data, pc clear) and one NT store.
	l.Boundary(0x15, persist.RV(3, 5))
	l.EndDurable()
	end := reg.Dev.Stats()
	if f, nt := end.Fences-after.Fences, end.NTStores-after.NTStores; f != 2 || nt != 1 {
		t.Fatalf("boundary + FASE end cost %d fences and %d NT stores, want 2 and 1", f, nt)
	}
}

func hex(a uint64) string { return fmt.Sprintf("%#x", a) }

// corrupt builds a region with one log crashed mid-FASE over two record
// pairs, applies damage to the persistent image, and returns what Inspect
// and Recover make of it.
func corrupt(t *testing.T, damage func(dev *nvm.Device, l *Log)) (inspectErr, recoverErr error, resumed bool) {
	t.Helper()
	reg, _, l := newLog(t, 16)
	cell, err := reg.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	l.BeginDurable()
	l.Boundary(0x20, persist.RV(0, 7), persist.RV(1, 8))
	l.Store64(cell, 1)
	reg2, err := reg.Crash(nvm.CrashPersistAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	damage(reg2.Dev, l)
	_, inspectErr = Inspect(reg2)
	_, recoverErr = Recover(reg2, locks.NewManager(reg2), "test", func(id int, pc uint64) (*Log, func([]uint64), error) {
		return &Log{}, func([]uint64) { resumed = true }, nil
	})
	return inspectErr, recoverErr, resumed
}

// TestCorruptPairCountIsRejected: a recovery_pc whose pair count exceeds
// the record area fails Inspect and Recover with an error naming the log;
// nothing is resumed on a guessed register file.
func TestCorruptPairCountIsRejected(t *testing.T) {
	var addr string
	ie, re, resumed := corrupt(t, func(dev *nvm.Device, l *Log) {
		addr = hex(l.addr)
		dev.StoreNT(l.addr+logPC, pcPack(0x20, RecPairs+1, 0))
	})
	for _, err := range []error{ie, re} {
		if err == nil || !strings.Contains(err.Error(), addr) || !strings.Contains(err.Error(), "65 record pairs") {
			t.Fatalf("got %v; want an error naming log %s and its 65 pairs", err, addr)
		}
	}
	if resumed {
		t.Fatal("a FASE resumed from a corrupt log")
	}
}

// TestCorruptRegisterIndexIsRejected: a record pair naming a register
// beyond the log's capacity fails Inspect and Recover the same way.
func TestCorruptRegisterIndexIsRejected(t *testing.T) {
	var addr string
	ie, re, resumed := corrupt(t, func(dev *nvm.Device, l *Log) {
		addr = hex(l.addr)
		dev.StoreNT(l.addr+l.recBase+16, 16) // pair 1 now names r16 of a 16-register log
	})
	for _, err := range []error{ie, re} {
		if err == nil || !strings.Contains(err.Error(), addr) || !strings.Contains(err.Error(), "register 16 of 16") {
			t.Fatalf("got %v; want an error naming log %s and register 16 of 16", err, addr)
		}
	}
	if resumed {
		t.Fatal("a FASE resumed from a corrupt log")
	}
}

// TestRecoverIdleWalkAllocs: with no tracer attached, an idle log costs
// Recover's walk its register mirror and the runtime's thread, not a
// formatted trace-ring label.
func TestRecoverIdleWalkAllocs(t *testing.T) {
	walk := func(n int) float64 {
		reg := region.Create(1<<20, nvm.Config{})
		for i := 0; i < n; i++ {
			if err := new(Log).Create(reg, "test", i, 16, 8, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		lm := locks.NewManager(reg)
		return testing.AllocsPerRun(10, func() {
			if _, err := Recover(reg, lm, "test", func(int, uint64) (*Log, func([]uint64), error) {
				return &Log{}, nil, nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perLog := (walk(33) - walk(1)) / 32; perLog > 2.5 {
		t.Fatalf("Recover allocates %.2f times per idle log; want at most 2.5 (the register mirror and the thread)", perLog)
	}
}

// TestCorruptLogListIsRejected: a region image can come from a file, so
// Recover and Inspect must end a log list that loops back on itself or
// links outside the device with an error. The walk runs under an armed
// device budget, so a walk that never ends runs the budget out instead
// of hanging the test.
func TestCorruptLogListIsRejected(t *testing.T) {
	const lastLine = 1<<20 - nvm.LineSize
	cases := []struct {
		name string
		link func(a, b uint64) (fromA, fromB uint64) // the links out of the two logs
		want string
	}{
		{"self-cycle", func(a, b uint64) (uint64, uint64) { return a, 0 }, "returns to log"},
		{"two-log cycle", func(a, b uint64) (uint64, uint64) { return b, a }, "returns to log"},
		{"out of range", func(a, b uint64) (uint64, uint64) { return 1 << 40, 0 }, "inside the device"},
		{"past the end", func(a, b uint64) (uint64, uint64) { return lastLine, 0 }, "past the device"},
		{"misaligned", func(a, b uint64) (uint64, uint64) { return b + 8, 0 }, "line-aligned"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := region.Create(1<<20, nvm.Config{})
			var logs [2]Log
			for i := range logs {
				if err := logs[i].Create(reg, "test", i, 16, 8, 0, false); err != nil {
					t.Fatal(err)
				}
			}
			a := reg.Root(region.RootIDOHead) // the last log created heads the list
			b := reg.Dev.Load64(a + logNext)
			// A well-formed header in the device's last line, whose log
			// would run past the end.
			reg.Dev.Store64(lastLine+logMeta, reg.Dev.Load64(a+logMeta))
			fromA, fromB := c.link(a, b)
			reg.Dev.Store64(a+logNext, fromA)
			reg.Dev.Store64(b+logNext, fromB)

			reg.Dev.ArmLocalCrash(1 << 16)
			defer reg.Dev.ArmLocalCrash(-1)
			walk := func(label string, fn func() error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked instead of failing (%v; CrashSignal: the walk ran out a 65536-event budget)", label, r)
					}
				}()
				if err := fn(); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s: err = %v, want one containing %q", label, err, c.want)
				}
			}
			walk("Inspect", func() error { _, err := Inspect(reg); return err })
			walk("Recover", func() error {
				_, err := Recover(reg, locks.NewManager(reg), "test", func(int, uint64) (*Log, func([]uint64), error) {
					return &Log{}, nil, nil
				})
				return err
			})
		})
	}
}
