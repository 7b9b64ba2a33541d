package nvml

import (
	"math/rand"
	"testing"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// TestTornCountDoesNotRevertCommittedData pins the generation-tag fix
// for NVML's torn-append window. Store64 writes the entry words and the
// log's count inside one unfenced window, and commit resets the count
// without erasing the entry area — so under nvm.CrashRandom the count
// can settle high while the exposed entry's words still hold a previous
// FASE's undo record. Pre-fix, recovery applied that stale record and
// reverted data a committed FASE had made durable. The per-entry tag
// hashed over the log generation makes the scan reject it.
//
// The torn state is forged by hand (count bumped past the one real
// entry) so the failure is deterministic rather than one CrashRandom
// settle among many.
func TestTornCountDoesNotRevertCommittedData(t *testing.T) {
	reg := region.Create(1<<20, nvm.Config{})
	rt := New()
	if err := rt.Attach(reg, nil); err != nil {
		t.Fatal(err)
	}
	dev := reg.Dev
	x, err := reg.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	y, err := reg.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	dev.Store64(x, 1)
	dev.CLWB(x)
	dev.Fence()

	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	// FASE 1 commits x = 2 via two stores, leaving two entry slots
	// populated; commit truncates the count but not the bytes.
	th.BeginDurable()
	th.Store64(x, 2)
	th.Store64(x, 3)
	th.EndDurable()
	// FASE 2 begins and writes one real entry (slot 0, for y).
	th.BeginDurable()
	th.Store64(y, 9)

	// Forge the CrashRandom outcome: count settles to 2, exposing slot 1
	// — FASE 1's stale undo record {x, old=2}.
	log := reg.Root(region.RootNVMLHead)
	dev.Store64(log+logCount, 2)
	dev.CLWB(log + logCount)
	dev.Fence()

	reg2, err := reg.Crash(nvm.CrashPersistAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := New()
	if err := rt2.Attach(reg2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	// FASE 2's real entry must roll y back; FASE 1's committed x = 3
	// must survive the stale slot.
	if got := reg2.Dev.Load64(x); got != 3 {
		t.Fatalf("stale undo entry reverted committed data: x = %d, want 3", got)
	}
	if got := reg2.Dev.Load64(y); got != 0 {
		t.Fatalf("incomplete FASE not rolled back: y = %d, want 0", got)
	}
}

// TestRecoverIsReentrant crashes nvml Recover at every device event of
// the pass and proves a second Recover converges to the uninterrupted
// outcome: the undo application is fenced durable before the truncation
// store, so the pass can die anywhere and be re-run.
func TestRecoverIsReentrant(t *testing.T) {
	for budget := int64(1); ; budget++ {
		reg := region.Create(1<<20, nvm.Config{})
		rt := New()
		if err := rt.Attach(reg, nil); err != nil {
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
		th.BeginDurable()
		th.Store64(x, 6)
		th.EndDurable() // committed: x = 6
		th.BeginDurable()
		th.Store64(x, 7) // interrupted: must roll back to 6

		reg2, err := reg.Crash(nvm.CrashDiscard, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt2 := New()
		if err := rt2.Attach(reg2, nil); err != nil {
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
			if _, err := rt2.Recover(nil); err != nil {
				t.Fatalf("budget %d: recover: %v", budget, err)
			}
			return false
		}()
		reg2.Dev.ArmLocalCrash(-1)
		if !crashed {
			if budget == 1 {
				t.Fatal("budget 1 did not crash: recovery-scoped injection is not reaching nvml Recover")
			}
			break
		}
		seed := budget
		reg3, err := reg2.Crash(nvm.CrashRandom, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rt3 := New()
		if err := rt3.Attach(reg3, nil); err != nil {
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
