package ds

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
)

// listSweepOps is one of each list FASE shape: append to an empty list,
// insert before the head, update in place, a Get hit, a Get miss, and an
// append behind two nodes. A Get's val is the value it must find (0: a
// miss).
var listSweepOps = []struct {
	put      bool
	key, val uint64
}{
	{true, 20, 21},
	{true, 10, 11},
	{true, 20, 22},
	{false, 10, 11},
	{false, 15, 0},
	{true, 30, 31},
}

// runListSweepOps sets up a fresh list, arms the device's crash budget,
// runs listSweepOps and reports how many completed before a crash.
func runListSweepOps(t *testing.T, env *Env, budget int64) (done int) {
	t.Helper()
	rt := newRT(t, env, func() persist.Runtime { return core.New(core.DefaultConfig()) })
	l, hdr, err := NewList(env)
	if err != nil {
		t.Fatal(err)
	}
	env.Reg.SetRoot(1, hdr)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	env.Reg.Dev.ArmLocalCrash(budget)
	catchCrash(func() {
		for _, op := range listSweepOps {
			if op.put {
				l.Put(th, op.key, op.val)
			} else if v, hit := l.Get(th, op.key); hit != (op.val != 0) || v != op.val {
				env.Reg.Dev.ArmLocalCrash(-1)
				t.Fatalf("Get(%d) = (%d, %v), want %d", op.key, v, hit, op.val)
			}
			done++
		}
	})
	return done
}

// TestListCrashSweepNeedsOnlyPublishedRegions crashes listSweepOps at
// every device event under each crash adversary and recovers with the
// package's registry, which holds entries only for the list regions a
// crash can publish: core fails recovery when a recovery_pc names a
// region with no entry. Every recovered list must be sorted, hold every
// completed Put's value (an interrupted update may leave either value),
// and leave every lock free; across the sweep each registered list
// region must have been resumed at least once.
func TestListCrashSweepNeedsOnlyPublishedRegions(t *testing.T) {
	probe := newEnv(t, 1<<20)
	if done := runListSweepOps(t, probe, 1<<40); done != len(listSweepOps) {
		t.Fatalf("probe crashed after %d ops", done)
	}
	events := 1<<40 - probe.Reg.Dev.LocalCrashBudgetRemaining()
	resumed := map[uint64]bool{}
	for _, mode := range []nvm.CrashMode{nvm.CrashDiscard, nvm.CrashRandom, nvm.CrashPersistAll} {
		for budget := int64(0); budget < events; budget++ {
			env := newEnv(t, 1<<20)
			done := runListSweepOps(t, env, budget)
			if done == len(listSweepOps) {
				t.Fatalf("mode %d budget %d: every op completed inside the probed event count", mode, budget)
			}
			env2, st := reopenIDO(t, env, mode, rand.New(rand.NewSource(budget)))
			for _, a := range st.Audit.Threads {
				if a.Action == obs.AuditResumed {
					resumed[a.RegionID] = true
				}
			}
			want := map[uint64][]uint64{} // key -> the values it may hold
			for i, op := range listSweepOps[:done+1] {
				switch {
				case !op.put:
				case i < done:
					want[op.key] = []uint64{op.val}
				case want[op.key] != nil: // the interrupted update
					want[op.key] = append(want[op.key], op.val)
				}
			}
			l2 := AttachList(env2, env2.Reg.Root(1))
			got := map[uint64]uint64{}
			prev := uint64(0)
			l2.Walk(func(k, v uint64) {
				if len(got) > 0 && k <= prev {
					t.Fatalf("mode %d budget %d: unsorted: %d after %d", mode, budget, k, prev)
				}
				prev, got[k] = k, v
			})
			for k, vals := range want {
				if v, ok := got[k]; !ok || !slices.Contains(vals, v) {
					t.Fatalf("mode %d budget %d: completed put(%d) lost: key holds %d (present %v), want one of %v", mode, budget, k, v, ok, vals)
				}
			}
			if len(got) > len(want)+1 {
				t.Fatalf("mode %d budget %d: %d keys present, %d completed", mode, budget, len(got), len(want))
			}
			dev := env2.Reg.Dev
			for node := l2.hdr; node != 0; node = dev.Load64(node + 16) {
				lk := env2.LM.ByHolder(dev.Load64(node + 24))
				if !lk.TryAcquire() {
					t.Fatalf("mode %d budget %d: lock of node %#x still held after recovery", mode, budget, node)
				}
				lk.Release()
			}
		}
	}
	for _, rid := range []uint64{ridInsUpd, ridInsLink, ridInsApp, ridInsRel2} {
		if !resumed[rid] {
			t.Errorf("region %#x never resumed across the sweep", rid)
		}
	}
	t.Logf("swept %d crash points under each of 3 adversaries", events)
}
