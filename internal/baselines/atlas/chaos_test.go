package atlas

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// TestTornCountDoesNotResurrectStaleEntry pins the generation-tag fix for
// the torn-append window. append writes the entry words and the chunk's
// count inside one unfenced window, and prune resets the count without
// erasing the entry bytes — so under nvm.CrashRandom the count can settle
// high while the entry words settle to a previous epoch's bytes, exposing
// a valid-looking undo record from an earlier, committed FASE. Pre-fix,
// recovery applied that stale record and reverted committed data (here:
// x back to 5 after a FASE that durably set it to 6). The generation tag
// in the kind word makes the scan reject it.
//
// The torn state is forged by hand (count bumped past the one real
// entry) so the failing schedule is deterministic rather than one
// CrashRandom settle among many.
func TestTornCountDoesNotResurrectStaleEntry(t *testing.T) {
	reg := region.Create(1<<20, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := New(Config{})
	if err := rt.Attach(reg, lm); err != nil {
		t.Fatal(err)
	}
	lockA, err := lm.Create()
	if err != nil {
		t.Fatal(err)
	}
	lockB, err := lm.Create()
	if err != nil {
		t.Fatal(err)
	}
	dev := reg.Dev
	x, err := reg.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	dev.Store64(x, 5)
	dev.CLWB(x)
	dev.Fence()

	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	// FASE 1 commits x = 6. Its undo entry {kStore, x, old=5} stays in
	// the chunk after prune resets the count.
	th.Lock(lockA)
	th.Store64(x, 6)
	th.Unlock(lockA)
	// FASE 2 begins on another lock: one kAcquire lands in entry 0.
	th.Lock(lockB)

	// Forge the CrashRandom outcome: the count word settles to a value
	// covering a stale entry whose words never left the old epoch.
	rec := reg.Root(region.RootAtlasHead)
	chunk := dev.Load64(rec + trChunk)
	dev.Store64(chunk+8, 2)
	dev.CLWB(chunk + 8)
	dev.Fence()

	reg2, err := reg.Crash(nvm.CrashPersistAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := New(Config{})
	if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
		t.Fatal(err)
	}
	stats, err := rt2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Dev.Load64(x); got != 6 {
		t.Fatalf("stale undo entry reverted committed data: x = %d, want 6 (stats %+v)", got, stats)
	}
}

// TestRecoverTruncationIsReentrant drives a crash at every device event
// inside atlas Recover itself and proves a second Recover converges: the
// undo application is fenced durable before the first truncation store,
// so whatever prefix of the pass survives, re-running it must leave the
// same final state and empty logs.
func TestRecoverTruncationIsReentrant(t *testing.T) {
	for budget := int64(1); ; budget++ {
		reg := region.Create(1<<20, nvm.Config{})
		lm := locks.NewManager(reg)
		rt := New(Config{Retain: true})
		if err := rt.Attach(reg, lm); err != nil {
			t.Fatal(err)
		}
		lock, err := lm.Create()
		if err != nil {
			t.Fatal(err)
		}
		dev := reg.Dev
		x, err := reg.Alloc.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		dev.Store64(x, 5)
		dev.CLWB(x)
		dev.Fence()
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		th.Lock(lock)
		th.Store64(x, 6)
		th.Unlock(lock) // FASE 1 complete: x = 6 durable
		th.Lock(lock)
		th.Store64(x, 7) // FASE 2 interrupted: must roll back to 6

		reg2, err := reg.Crash(nvm.CrashDiscard, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt2 := New(Config{Retain: true})
		if err := rt2.Attach(reg2, locks.NewManager(reg2)); err != nil {
			t.Fatal(err)
		}
		reg2.Dev.ArmRecoveryCrash(budget)
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
					c = true
				}
			}()
			_, err := rt2.Recover(nil)
			if err != nil {
				t.Fatalf("budget %d: recover: %v", budget, err)
			}
			return false
		}()
		reg2.Dev.ArmLocalCrash(-1)
		if !crashed {
			if budget == 1 {
				t.Fatal("budget 1 did not crash: recovery-scoped injection is not reaching atlas Recover")
			}
			break // budget outlasted the whole pass: every point swept
		}
		seed := budget
		reg3, err := reg2.Crash(nvm.CrashRandom, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rt3 := New(Config{Retain: true})
		if err := rt3.Attach(reg3, locks.NewManager(reg3)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt3.Recover(nil); err != nil {
			t.Fatalf("budget %d seed %d: second recover: %v", budget, seed, err)
		}
		if got := reg3.Dev.Load64(x); got != 6 {
			t.Fatalf("budget %d seed %d: after crash-in-recovery + re-recover, x = %d, want 6", budget, seed, got)
		}
	}
}
