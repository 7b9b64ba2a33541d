package baselines_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/mnemosyne"
	"github.com/ido-nvm/ido/internal/baselines/nvml"
	"github.com/ido-nvm/ido/internal/baselines/nvthreads"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// TestCorruptLogListsAreRejected: a region image can come from a file,
// so every baseline's Recover must end a log list — and Atlas a thread's
// chain of log chunks — that links back to itself, out of the device or
// off line alignment with an error naming the link. The pass runs under
// an armed device budget: a walk that never ends runs the budget out
// instead of hanging the test. The iDO and VM lists are
// TestCorruptLogListIsRejected's (internal/idolog).
func TestCorruptLogListsAreRejected(t *testing.T) {
	const size = 1 << 22
	// Each list's head node after the crash, and the address of the link
	// out of it. The offsets are the packages' layout constants: the
	// thread record's link and first chunk, a chunk's link and entry
	// count (Atlas), each log's link word (the others).
	lists := []struct {
		name    string
		mk      func() persist.Runtime
		node    func(reg *region.Region) (node, link uint64)
		oneLine bool // the nodes span one line: none can run past the device
	}{
		{"atlas", func() persist.Runtime { return atlas.New(atlas.Config{}) }, func(reg *region.Region) (uint64, uint64) {
			rec := reg.Root(region.RootAtlasHead)
			return rec, rec
		}, true},
		{"atlas chunks", func() persist.Runtime { return atlas.New(atlas.Config{}) }, func(reg *region.Region) (uint64, uint64) {
			c := reg.Dev.Load64(reg.Root(region.RootAtlasHead) + 16)
			reg.Dev.StoreNT(c+8, 504) // a full chunk: the scan goes on to the next
			return c, c
		}, false},
		{"mnemosyne", func() persist.Runtime { return mnemosyne.New() }, func(reg *region.Region) (uint64, uint64) {
			log := reg.Root(region.RootMnemosyneHead)
			return log, log + 16
		}, false},
		{"nvml", func() persist.Runtime { return nvml.New() }, func(reg *region.Region) (uint64, uint64) {
			log := reg.Root(region.RootNVMLHead)
			return log, log + 8
		}, false},
		{"nvthreads", func() persist.Runtime { return nvthreads.New() }, func(reg *region.Region) (uint64, uint64) {
			log := reg.Root(region.RootNVThreadsHead)
			return log, log + 16
		}, false},
	}
	forgeries := []struct {
		name string
		to   func(node uint64) uint64
	}{
		{"self-link", func(node uint64) uint64 { return node }},
		{"past the device", func(uint64) uint64 { return 1 << 40 }},
		{"runs past the device", func(uint64) uint64 { return size - nvm.LineSize }}, // the device's last line
		{"misaligned", func(node uint64) uint64 { return node + 8 }},
	}
	for _, l := range lists {
		for _, f := range forgeries {
			if l.oneLine && f.name == "runs past the device" {
				continue
			}
			t.Run(l.name+"/"+f.name, func(t *testing.T) {
				reg := region.Create(size, nvm.Config{})
				lm := locks.NewManager(reg)
				rt := l.mk()
				if err := rt.Attach(reg, lm); err != nil {
					t.Fatal(err)
				}
				lock, err := lm.Create()
				if err != nil {
					t.Fatal(err)
				}
				cell, _ := reg.Alloc.Alloc(8)
				for i := 0; i < 2; i++ {
					th, err := rt.NewThread()
					if err != nil {
						t.Fatal(err)
					}
					th.Exec(func() {
						th.Lock(lock)
						th.Store64(cell, uint64(i+1))
						th.Unlock(lock)
					})
				}
				reg2, err := reg.Crash(nvm.CrashDiscard, nil)
				if err != nil {
					t.Fatal(err)
				}
				node, link := l.node(reg2)
				bad := f.to(node)
				reg2.Dev.StoreNT(link, bad)
				reg2.Dev.Fence()

				rt2 := l.mk()
				if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
					t.Fatal(err)
				}
				reg2.Dev.ArmLocalCrash(1 << 16)
				defer reg2.Dev.ArmLocalCrash(-1)
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Recover panicked instead of failing (%v; CrashSignal: the walk ran out a 65536-event budget)", r)
					}
				}()
				_, err = rt2.Recover(persist.NewResumeRegistry())
				if want := fmt.Sprintf("%#x", bad); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want one naming the link %s", err, want)
				}
			})
		}
	}
}

// TestCorruptLogEntriesAreRejected: the entries a recovery applies come
// from the image as well, so an entry that names an address off its
// alignment or outside the device must end Recover with an error naming
// the runtime, the log and the entry, not an nvm address fault. Each case
// forges entry 0 of the head log into a crashed image as a live one: an
// NVML undo record with a valid tag, a committed Mnemosyne redo record, a
// committed NVThreads page.
func TestCorruptLogEntriesAreRejected(t *testing.T) {
	const size = 1 << 22
	// nvmlTag is nvml's entry tag: its generation hashed with the entry.
	nvmlTag := func(gen, addr, old uint64) uint64 {
		x := gen + 0x632be59bd9b4e019
		for _, w := range [...]uint64{addr, old} {
			x ^= w
			x *= 0x9e3779b97f4a7c15
			x ^= x >> 29
		}
		return x
	}
	cases := []struct {
		name  string
		mk    func() persist.Runtime
		root  int
		bad   uint64
		forge func(dev *nvm.Device, log, bad uint64)
	}{
		{"nvml/past the device", func() persist.Runtime { return nvml.New() }, region.RootNVMLHead, 1 << 40,
			func(dev *nvm.Device, log, bad uint64) {
				gen := dev.Load64(log + 16)
				dev.StoreNT(log+64, bad)
				dev.StoreNT(log+72, 7)
				dev.StoreNT(log+80, nvmlTag(gen, bad, 7))
				dev.StoreNT(log, 1) // one live entry
			}},
		{"mnemosyne/past the device", func() persist.Runtime { return mnemosyne.New() }, region.RootMnemosyneHead, size,
			func(dev *nvm.Device, log, bad uint64) {
				dev.StoreNT(log+64, bad)
				dev.StoreNT(log+72, 7)
				dev.StoreNT(log+8, 1) // one entry
				dev.StoreNT(log, 1)   // committed
			}},
		{"nvthreads/past the device", func() persist.Runtime { return nvthreads.New() }, region.RootNVThreadsHead, size,
			func(dev *nvm.Device, log, bad uint64) {
				dev.StoreNT(log+64, bad)
				dev.StoreNT(log+8, 1) // one page
				dev.StoreNT(log, 1)   // committed
			}},
		{"nvthreads/misaligned", func() persist.Runtime { return nvthreads.New() }, region.RootNVThreadsHead, 2*4096 + 4,
			func(dev *nvm.Device, log, bad uint64) {
				dev.StoreNT(log+64, bad)
				dev.StoreNT(log+8, 1)
				dev.StoreNT(log, 1)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := region.Create(size, nvm.Config{})
			lm := locks.NewManager(reg)
			rt := c.mk()
			if err := rt.Attach(reg, lm); err != nil {
				t.Fatal(err)
			}
			lock, err := lm.Create()
			if err != nil {
				t.Fatal(err)
			}
			cell, _ := reg.Alloc.Alloc(8)
			th, err := rt.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			th.Exec(func() {
				th.Lock(lock)
				th.Store64(cell, 1)
				th.Unlock(lock)
			})
			reg2, err := reg.Crash(nvm.CrashDiscard, nil)
			if err != nil {
				t.Fatal(err)
			}
			log := reg2.Root(c.root)
			c.forge(reg2.Dev, log, c.bad)
			reg2.Dev.Fence()

			rt2 := c.mk()
			if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Recover panicked instead of failing: %v", r)
				}
			}()
			_, err = rt2.Recover(persist.NewResumeRegistry())
			for _, want := range []string{strings.SplitN(c.name, "/", 2)[0] + ":", fmt.Sprintf("log %#x entry 0", log), fmt.Sprintf("%#x", c.bad)} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want one naming %q", err, want)
				}
			}
		})
	}
}
