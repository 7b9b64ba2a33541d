package nvm

import (
	"bytes"
	"math/rand"
	"testing"
)

// forkSource builds a device whose lines are in every state a crash
// image can hold: clean cached, dirty, written back, NT-stored, and
// pages never written at all.
func forkSource() *Device {
	d := New(Config{Size: 1 << 16})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		addr := uint64(r.Intn(1<<13)) * WordSize
		if addr>>pageShift == 5 {
			continue // page 5 stays unwritten
		}
		switch r.Intn(6) {
		case 0:
			d.StoreNT(addr, r.Uint64())
		case 1:
			d.CLWB(addr)
		case 2:
			d.Fence()
		default:
			d.Store64(addr, r.Uint64())
		}
	}
	return d
}

// TestForkCopiesTheImage: a fork reads every word and counts every event
// the source does at fork time, holds the same persistence domain, and
// settles under each adversary to the image the source settles to.
func TestForkCopiesTheImage(t *testing.T) {
	src := forkSource()
	f := src.Fork()
	if got, want := f.Stats(), src.Stats(); got != want {
		t.Fatalf("fork stats %+v, source %+v", got, want)
	}
	if !bytes.Equal(f.SnapshotPersistent(), src.SnapshotPersistent()) {
		t.Fatal("fork's persistence domain differs from the source's")
	}
	for addr := uint64(0); addr < uint64(src.Size()); addr += WordSize {
		if got, want := f.Load64(addr), src.Load64(addr); got != want {
			t.Fatalf("fork reads %#x at %#x, source %#x", got, addr, want)
		}
	}

	var images [3][]byte
	for _, mode := range []CrashMode{CrashDiscard, CrashRandom, CrashPersistAll} {
		src := forkSource()
		f := src.Fork()
		f.Crash(mode, rand.New(rand.NewSource(7)))
		src.Crash(mode, rand.New(rand.NewSource(7)))
		images[mode] = src.SnapshotPersistent()
		if !bytes.Equal(f.SnapshotPersistent(), images[mode]) {
			t.Fatalf("%s: the fork settled to a different image than the source", mode)
		}
	}
	if bytes.Equal(images[CrashDiscard], images[CrashPersistAll]) {
		t.Fatal("the source holds no dirty word: the adversaries were not tested")
	}
}

// TestForkIsIndependent: what happens to a fork never reaches its
// source, and the source's armed crash budget stays with the source.
func TestForkIsIndependent(t *testing.T) {
	src := forkSource()
	img := src.SnapshotPersistent()
	f := src.Fork()
	for addr := uint64(0); addr < 1<<12; addr += WordSize {
		f.Store64(addr, ^addr)
		f.CLWB(addr)
		f.StoreNT(addr+1<<12, addr)
	}
	f.Fence()
	f.Crash(CrashPersistAll, nil)
	if !bytes.Equal(src.SnapshotPersistent(), img) {
		t.Fatal("stores, write-backs and a crash on the fork changed the source's persistence domain")
	}

	src.ArmLocalCrash(2)
	f = src.Fork()
	if f.LocalCrashArmed() {
		t.Fatal("the fork inherited the source's armed crash budget")
	}
	for addr := uint64(0); addr < 1<<10; addr += WordSize {
		f.Store64(addr, addr) // would fire at the third event if armed
	}
	if !src.LocalCrashArmed() || src.LocalCrashBudgetRemaining() != 2 {
		t.Fatalf("forking changed the source's budget: armed=%v remaining=%d", src.LocalCrashArmed(), src.LocalCrashBudgetRemaining())
	}
	src.ArmLocalCrash(-1)
}
