package chaos

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

func pick(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func TestScheduleStringRoundTrip(t *testing.T) {
	for _, s := range []Schedule{
		{Runtime: "ido", Workload: "counter", Mode: nvm.CrashRandom, Seed: 7, Forward: 12, Recovery: []int64{3, 5}},
		{Runtime: "vm-ido", Workload: "mapput", Mode: nvm.CrashDiscard, Seed: 1, Forward: 99},
		{Runtime: "nvml", Workload: "counter", Mode: nvm.CrashPersistAll, Seed: -3, Forward: 1, Recovery: []int64{0, 0, 0}},
	} {
		got, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip: %s -> %+v, want %+v", s, got, s)
		}
	}
}

func TestParseScheduleRejects(t *testing.T) {
	for _, bad := range []string{
		"ido:counter:random:7:12",           // missing field
		"ido:counter:sideways:7:12:-",       // unknown mode
		"ido:counter:random:7:12:1,2,3,4",   // nesting too deep
		"warp9:counter:random:7:12:-",       // unknown runtime
		"ido:towersofhanoi:random:7:12:-",   // unknown workload
		"ido:counter:random:seven:12:-",     // bad seed
		"vm-ido:counter:persist-all:1:5:-",  // native workload on the VM
		"origin:mapput:persist-all:1:5:-",   // VM workload on a native runtime
		"atlas:cachemix:random:1:5:-",       // cachemix needs FASE-exact recovery
		"origin:cachemix:persist-all:1:5:-", // ditto
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
}

// TestSweepAllRuntimes is the tentpole matrix: for every runtime,
// forward crash points × first-pass recovery crash points under every
// supported adversary, plus sampled depth-2/3 nesting, each schedule
// verified against the CrashPersistAll oracle.
func TestSweepAllRuntimes(t *testing.T) {
	for _, rt := range Runtimes() {
		t.Run(rt, func(t *testing.T) {
			st, err := Sweep(SweepOptions{
				Runtime:        rt,
				ForwardPoints:  pick(10, 4),
				RecoveryPoints: pick(6, 3),
				DeepSamples:    pick(2, 1),
			})
			if err != nil {
				t.Fatalf("sweep diverged (the error carries the replayable tuple; rerun with idorecover -chaos -replay '<tuple>'): %v", err)
			}
			if st.Schedules == 0 {
				t.Fatal("sweep ran no schedules")
			}
			switch rt {
			case "justdo", "origin", "vm-origin":
				// Recovery refuses or is a no-op: no pass to crash.
				if st.Depth[1]+st.Depth[2]+st.Depth[3] != 0 {
					t.Fatalf("recovery-less runtime reported nested crashes: %v", st.Depth)
				}
			default:
				if st.Depth[1] == 0 {
					t.Fatalf("no schedule crashed inside recovery: %v", st.Depth)
				}
			}
			t.Logf("%d schedules converged; nesting-depth histogram %v", st.Schedules, st.Depth)
		})
	}
}

// TestNestedDepth3Converges pins the deepest contract directly: crash
// the first recovery at its first event, the recovery of that recovery
// at its first event, and once more at depth 3, then prove the final
// clean pass converges. Budget 0 always fires (every pass reads the
// log list), so the depth is deterministic, and the per-nesting-level
// attempt indices must come out 0,1,2,3.
func TestNestedDepth3Converges(t *testing.T) {
	for _, rt := range []string{"ido", "atlas", "mnemosyne", "nvthreads", "nvml", "vm-ido", "vm-justdo"} {
		t.Run(rt, func(t *testing.T) {
			base := Schedule{Runtime: rt, Workload: DefaultWorkload(rt), Mode: nvm.CrashRandom, Seed: 42, Forward: 1}
			k, err := ForwardEvents(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []int64{1, k / 2, k - 1} {
				if f < 1 {
					continue
				}
				s := base
				s.Forward = f
				s.Recovery = []int64{0, 0, 0}
				res, err := Run(s)
				if err != nil {
					t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
				}
				if len(res.Attempts) != 4 {
					t.Fatalf("%s: %d attempts, want 4 (3 crashed + final)", s, len(res.Attempts))
				}
				for i, a := range res.Attempts {
					if a.Index != i {
						t.Fatalf("%s: attempt %d has recovery-pass index %d", s, i, a.Index)
					}
					if crashed := i < 3; a.Crashed != crashed {
						t.Fatalf("%s: attempt %d crashed=%v, want %v", s, i, a.Crashed, crashed)
					}
				}
				last := res.Attempts[3]
				if last.Audit == nil {
					t.Fatalf("%s: final pass has no audit", s)
				}
				if last.Audit.Attempt != last.Index {
					t.Fatalf("%s: final audit attempt %d, want %d", s, last.Audit.Attempt, last.Index)
				}
			}
		})
	}
}

// TestNestedCrashLeaksNoGoroutines covers the drained-gate fix in both
// parallel-restore runtimes (core and the VM) at the harness level:
// repeated nested recovery crashes must not strand restore goroutines.
func TestNestedCrashLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, rt := range []string{"ido", "vm-ido"} {
		s := Schedule{Runtime: rt, Workload: DefaultWorkload(rt), Mode: nvm.CrashDiscard, Seed: 3, Forward: 5, Recovery: []int64{0, 0, 0}}
		for i := 0; i < pick(8, 3); i++ {
			s.Seed = int64(i + 1)
			if _, err := Run(s); err != nil {
				t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines above baseline %d after nested-crash schedules", runtime.NumGoroutine()-base, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJUSTDOParamRegisterReplay pins two bugs this harness found in the
// VM's JUSTDO mode. First, Thread.Call used to write parameter registers
// (and the stack pointer) straight into the volatile register file,
// bypassing the JUSTDO register-slot discipline, so a replay resuming
// inside map_put restored the key parameter as the slot's stale value —
// typically 0 — and linked a key-0 node into whatever bucket the
// pre-crash key had hashed to. Second, the single ⟨pc, addr, val⟩ log
// record was rewritten in place with three unordered stores, so a crash
// mid-rewrite (e.g. at vm-justdo:mapput:persist-all:1:208) left a mixed
// record — new pc and addr with the previous store's value — and replay
// wrote that stale value into the named register slot, turning a node's
// lock-holder field into the node's own address. Both windows open at
// crash points all through a put's FASE, so the test strides the whole
// forward range; pre-fix it fails the bucket/chain invariants or the
// lock-table check.
func TestJUSTDOParamRegisterReplay(t *testing.T) {
	base := Schedule{Runtime: "vm-justdo", Workload: "mapput", Mode: nvm.CrashPersistAll, Seed: 1}
	k, err := ForwardEvents(base)
	if err != nil {
		t.Fatal(err)
	}
	// Stride the whole forward range: the stale-parameter window opens
	// at every crash point inside a put's FASE.
	stride := k / int64(pick(40, 10))
	if stride < 1 {
		stride = 1
	}
	for f := int64(1); f < k; f += stride {
		s := base
		s.Forward = f
		if _, err := Run(s); err != nil {
			t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
		}
	}
}

// TestCacheMixSweep drives the delete-heavy memcache workload (the
// Fig. 5c satellite) through the harness: a bounded sweep on iDO — the
// delete FASEs' unchain / LRU-unlink / count regions crash-tested under
// every adversary, including nested recovery crashes — plus one
// deterministic depth-1 schedule per other supported runtime.
func TestCacheMixSweep(t *testing.T) {
	st, err := Sweep(SweepOptions{
		Runtime:        "ido",
		Workload:       "cachemix",
		ForwardPoints:  pick(8, 3),
		RecoveryPoints: pick(4, 2),
		DeepSamples:    1,
	})
	if err != nil {
		t.Fatalf("sweep diverged (rerun with idorecover -chaos -replay '<tuple>'): %v", err)
	}
	if st.Schedules == 0 || st.Depth[1] == 0 {
		t.Fatalf("sweep too shallow: %d schedules, depth histogram %v", st.Schedules, st.Depth)
	}
	t.Logf("ido/cachemix: %d schedules converged; depth histogram %v; %d leaked a block (at most %d bytes)",
		st.Schedules, st.Depth, st.Leaked, st.LeakedBytes)

	for _, rt := range []string{"mnemosyne", "nvthreads"} {
		base := Schedule{Runtime: rt, Workload: "cachemix", Mode: nvm.CrashRandom, Seed: 7, Forward: 1}
		k, err := ForwardEvents(base)
		if err != nil {
			t.Fatal(err)
		}
		s := base
		s.Forward = k / 2
		s.Recovery = []int64{0}
		if _, err := Run(s); err != nil {
			t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
		}
	}
}

// TestCrashLeakIsCounted measures the crash-time leak the protocol
// accepts (PR 15: an item allocated in a SET's unpublished prefix, a
// DELETE's victim freed after its FASE): it crashes the cachemix script
// at every forward event, alone and again inside the recovery that
// follows, and holds the recovered heap against what the cache still
// reaches. Run bounds each schedule at one block per crash; here the
// leak must show up (the audit is not blind), never exceed one item, and
// the prefix workload, whose FASEs allocate nothing, must leak nothing.
func TestCrashLeakIsCounted(t *testing.T) {
	for _, tc := range []struct {
		workload string
		leaks    bool
	}{{"cachemix", true}, {"prefix", false}} {
		base := Schedule{Runtime: "ido", Workload: tc.workload, Mode: nvm.CrashDiscard, Seed: 1}
		k, err := ForwardEvents(base)
		if err != nil {
			t.Fatal(err)
		}
		schedules, leaked, worst := 0, 0, uint64(0)
		for f, stride := int64(1), int64(pick(1, 7)); f < k; f += stride {
			for _, rec := range [][]int64{nil, {f % 5}} {
				s := base
				s.Forward, s.Recovery = f, rec
				res, err := Run(s)
				if err != nil {
					t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
				}
				schedules++
				if res.LeakedBlocks > 0 {
					leaked++
					worst = max(worst, res.LeakedBytes)
				}
			}
		}
		const item = 64 // a kv/memcache item's block
		if (leaked > 0) != tc.leaks || worst > item {
			t.Fatalf("ido/%s: %d of %d schedules leaked, at most %d bytes; want leaks=%v of at most one %d-byte item",
				tc.workload, leaked, schedules, worst, tc.leaks, item)
		}
		t.Logf("ido/%s: %d of %d schedules leaked a block, at most %d bytes per schedule", tc.workload, leaked, schedules, worst)
	}
}

// TestPCPublishSingleEvent pins a bug the sweep found in the iDO
// runtimes (native and VM) and in the VM's JUSTDO mode: recovery_pc was
// published with a cached store followed by a CLWB, leaving a one-event
// window where the crash adversary decided whether the pc reached the
// persistence domain. At a FASE's entry boundary that choice was "FASE
// never started" (discard) versus "FASE resumes and completes"
// (persist-all) — e.g. vm-ido:mapput:discard:1:409:0 against the old
// code — violating the adversary-independence the persist-all oracle
// checks exactly. The pc is now published with a single non-temporal
// store. The window was one event wide, so this walks EVERY forward
// event under the discard adversary (the sweep's coarser stride can
// miss it).
func TestPCPublishSingleEvent(t *testing.T) {
	for _, base := range []Schedule{
		{Runtime: "ido", Workload: "counter", Mode: nvm.CrashDiscard, Seed: 1},
		{Runtime: "vm-ido", Workload: "mapput", Mode: nvm.CrashDiscard, Seed: 1},
		{Runtime: "vm-justdo", Workload: "mapput", Mode: nvm.CrashDiscard, Seed: 1},
	} {
		k, err := ForwardEvents(base)
		if err != nil {
			t.Fatal(err)
		}
		for f, stride := int64(1), int64(pick(1, 7)); f < k; f += stride {
			s := base
			s.Forward = f
			if _, err := Run(s); err != nil {
				t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
			}
		}
	}
}

// TestNVThreadsCommitSelfClobber pins a bug this workload found in the
// NVThreads baseline: its per-thread page log used to share page 0 with
// the workload data, so a multi-page commit that dirtied page 0 would,
// while applying that page home, overwrite its own published commit
// record with the mid-FASE COW snapshot (logState=0). A crash between
// the two page applies — e.g. nvthreads:cachemix:random:7:654:0 against
// the old layout — then skipped the replay and lost the unapplied half
// of a committed delete FASE (the victim's LRU neighbor kept a dangling
// back link). The log now gets pages of its own; this strides crash
// points across the whole forward range to keep the window covered.
func TestNVThreadsCommitSelfClobber(t *testing.T) {
	base := Schedule{Runtime: "nvthreads", Workload: "cachemix", Mode: nvm.CrashPersistAll, Seed: 7}
	k, err := ForwardEvents(base)
	if err != nil {
		t.Fatal(err)
	}
	stride := k / int64(pick(40, 10))
	if stride < 1 {
		stride = 1
	}
	for f := int64(1); f < k; f += stride {
		s := base
		s.Forward = f
		if _, err := Run(s); err != nil {
			t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
		}
	}
}

// TestGroupCommitDenseDiscard walks EVERY forward event of the counter
// workload on the drain-sharing device under the discard adversary (the
// strongest — anything not covered by a completed drain is lost). A
// divergence from the persist-all oracle or a counter outside the
// bounded deficit fails the Run. -short strides.
func TestGroupCommitDenseDiscard(t *testing.T) {
	base := Schedule{Runtime: gcRuntime, Workload: "counter", Mode: nvm.CrashDiscard, Seed: 1}
	stride := int64(pick(1, 11))
	t.Run(base.Runtime, func(t *testing.T) {
		k, err := ForwardEvents(base)
		if err != nil {
			t.Fatal(err)
		}
		for f := int64(1); f < k; f += stride {
			s := base
			s.Forward = f
			if _, err := Run(s); err != nil {
				t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
			}
		}
		t.Logf("covered forward 1..%d stride %d", k-1, stride)
	})
}

// TestGroupCommitMatchesDirectObservables: a lone committer shares no
// drain, so drain sharing adds no crash point — ido-gc has exactly as
// many forward events as ido, and crashing the two at the same event
// under the discard adversary recovers the same observables.
func TestGroupCommitMatchesDirectObservables(t *testing.T) {
	for _, wl := range []string{"counter", "cachemix"} {
		direct := Schedule{Runtime: "ido", Workload: wl, Seed: 1}
		gc := Schedule{Runtime: gcRuntime, Workload: wl, Seed: 1}
		kd, err := ForwardEvents(direct)
		if err != nil {
			t.Fatal(err)
		}
		kg, err := ForwardEvents(gc)
		if err != nil {
			t.Fatal(err)
		}
		if kd != kg {
			t.Fatalf("%s: %d forward events direct, %d with drain sharing", wl, kd, kg)
		}
		direct.Mode, gc.Mode = nvm.CrashDiscard, nvm.CrashDiscard
		for f := int64(1); f < kd; f += int64(pick(5, 23)) {
			direct.Forward, gc.Forward = f, f
			rd, err := Run(direct)
			if err != nil {
				t.Fatal(err)
			}
			rg, err := Run(gc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rd.Final, rg.Final) {
				t.Fatalf("%s crash at %d: direct recovers %v, shared %v", wl, f, rd.Final, rg.Final)
			}
		}
	}
}

// TestRunRejectsUnsupportedMode: runtimes without recovery are only
// comparable to the oracle under persist-all.
func TestRunRejectsUnsupportedMode(t *testing.T) {
	for _, rt := range []string{"origin", "vm-origin"} {
		s := Schedule{Runtime: rt, Workload: DefaultWorkload(rt), Mode: nvm.CrashDiscard, Seed: 1, Forward: 3}
		if _, err := Run(s); err == nil {
			t.Errorf("%s: Run accepted the discard adversary", rt)
		}
	}
}

// TestRunsOnSeparateDevicesAreIndependent: a schedule arms and crashes
// only its own device, so schedules run at the same time must each end
// exactly as they do alone — a native one and a VM one, three of each.
func TestRunsOnSeparateDevicesAreIndependent(t *testing.T) {
	native, err := ParseSchedule("ido:counter:random:7:12:3,5")
	if err != nil {
		t.Fatal(err)
	}
	vmS := Schedule{Runtime: "vm-ido", Workload: "mapput", Mode: nvm.CrashRandom, Seed: 5}
	fwd, err := ForwardEvents(vmS)
	if err != nil {
		t.Fatal(err)
	}
	vmS.Forward = fwd / 2
	rec, err := RecoveryEvents(vmS)
	if err != nil || rec < 2 {
		t.Fatalf("%s: %d recovery events (%v)", vmS, rec, err)
	}
	vmS.Recovery = []int64{rec / 2}
	scheds := []Schedule{native, vmS}
	serial := make([]*Result, len(scheds))
	for i, s := range scheds {
		if serial[i], err = Run(s); err != nil {
			t.Fatal(err)
		}
	}

	results := make([]*Result, 3*len(scheds))
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(scheds[i%len(scheds)])
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		s := scheds[i%len(scheds)]
		if errs[i] != nil {
			t.Fatalf("%s, run concurrently: %v", s, errs[i])
		}
		if !reflect.DeepEqual(r, serial[i%len(scheds)]) {
			t.Errorf("%s: concurrent run differs from the serial one\nconcurrent: %+v\nserial:     %+v", s, r, serial[i%len(scheds)])
		}
	}
}

// TestReplayIsDeterministic: the String form replays to the identical
// observation, which is what makes a printed failing tuple actionable.
func TestReplayIsDeterministic(t *testing.T) {
	s := Schedule{Runtime: "ido", Workload: "counter", Mode: nvm.CrashRandom, Seed: 99, Forward: 17, Recovery: []int64{4, 2}}
	first, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Final, second.Final) {
		t.Fatalf("replay diverged: %v vs %v", first.Final, second.Final)
	}
	if len(first.Attempts) != len(second.Attempts) {
		t.Fatalf("replay attempt counts differ: %d vs %d", len(first.Attempts), len(second.Attempts))
	}
	for i := range first.Attempts {
		if first.Attempts[i].Crashed != second.Attempts[i].Crashed {
			t.Fatalf("replay attempt %d crash outcome differs", i)
		}
	}
}

// crashedLog runs a single-threaded iDO workload to s's forward crash and
// returns the crashed thread's log as a restart would decode it, with
// the device counts at that point. recovery_pc moves only by NT store,
// so no settle is needed to read what a restart would see.
func crashedLog(t *testing.T, s Schedule) (idolog.Entry, nvm.Stats) {
	t.Helper()
	d, _, err := newDriver(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.prepare(s.Seed); err != nil {
		t.Fatal(err)
	}
	defer d.dev().ArmLocalCrash(-1)
	d.dev().ArmLocalCrash(s.Forward)
	if crashed, err := catchCrash(d.forward); err != nil || !crashed {
		t.Fatalf("%s: forward crashed=%v err=%v", s, crashed, err)
	}
	d.dev().ArmLocalCrash(-1)
	var reg *region.Region
	switch d := d.(type) {
	case *compactDriver:
		reg = d.reg
	case *prefixDriver:
		reg = d.reg
	}
	logs, err := idolog.Inspect(reg)
	if err != nil || len(logs) != 1 {
		t.Fatalf("%s: %d thread logs (%v), want 1", s, len(logs), err)
	}
	return logs[0], reg.Dev.Stats()
}

// TestCompactionSweep crashes the compact workload — one FASE that
// overflows the iDO log's 64-pair record area twice — at EVERY forward
// device event under every adversary, and then goes after compaction
// itself from the recovery side: where the forward crash leaves a full
// record area (so the resumed region's closing boundary compacts again,
// or the crash already sits inside a compaction), a second crash is
// injected at every event of the pass up to well past the resumed
// FASE's own compaction. Each schedule must converge on the persist-all
// oracle with every cell equal to the device-free model. -short strides
// both axes.
func TestCompactionSweep(t *testing.T) {
	base := Schedule{Runtime: "ido", Workload: "compact", Seed: 1}
	k, err := ForwardEvents(base)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Schedule) {
		t.Helper()
		if _, err := Run(s); err != nil {
			t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
		}
	}
	// restoreAndCompact bounds the recovery events up to the end of the
	// resumed FASE's first compaction: the walk and restore load at most
	// 2·64 record words, 16 base words and the header, then one region
	// body and the compaction (16 stores, write-backs, two fences).
	const restoreAndCompact = 220
	var full [2]int // forward points that left a full record area, by base flag
	nested := 0
	for f := int64(1); f < k; f++ {
		s := base
		s.Forward = f
		if f%int64(pick(1, 9)) == 0 {
			for _, s.Mode = range allModes {
				run(s)
			}
		}
		log, _ := crashedLog(t, s)
		if len(log.Pairs) != 64 {
			continue
		}
		if log.BaseValid {
			full[1]++
		} else {
			full[0]++
		}
		if (full[0]+full[1])%pick(2, 11) != 1 {
			continue // every other full-area crash point gets the dense second crash
		}
		for _, s.Mode = range allModes {
			for r := int64(0); r < restoreAndCompact; r++ {
				s.Recovery = []int64{r}
				run(s)
				nested++
			}
		}
	}
	if full[0] < 10 || full[1] < 10 {
		t.Fatalf("forward crash points with a full record area: %d before the first compaction, %d before the second; the workload no longer compacts twice", full[0], full[1])
	}
	t.Logf("%d forward events; %d+%d crash points with a full record area, %d second crashes through the resumed compaction", k-1, full[0], full[1], nested)
}

// TestLazyPublishSweep crashes the prefix workload — a FASE with a long
// store-free hand-over-hand prefix, then a read-only FASE on the same
// locks — at EVERY forward device event under every adversary, plus a
// second crash at each of the first 100 events of the recovery that
// follows. Each schedule must converge on the persist-all oracle with
// both cells equal to the device-free model, every lock free, and the
// final pass resuming exactly the FASEs that had published (a restart
// asking for a prefix region, or for anything inside the read-only FASE,
// finds no resume entry and fails the run). The forward event sequence
// itself, reconstructed from the device counts at consecutive crash
// points, must keep the persist order the crash arguments rest on: no
// write-back between a recovery_pc NT store and the fence before it
// (the device model writes back synchronously, so a dropped fence shows
// here and nowhere else). -short strides both axes.
func TestLazyPublishSweep(t *testing.T) {
	base := Schedule{Runtime: "ido", Workload: "prefix", Seed: 1}
	k, err := ForwardEvents(base)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Schedule, published bool) {
		t.Helper()
		res, err := Run(s)
		if err != nil {
			t.Fatalf("replay with: idorecover -chaos -replay '%s': %v", s, err)
		}
		// A crashed first pass may have finished the FASE already, so only
		// an uninterrupted recovery must resume the published one.
		final := res.Attempts[len(res.Attempts)-1].Audit.Resumed()
		if !published && final != 0 || published && len(s.Recovery) == 0 && final != 1 {
			t.Fatalf("%s: crash with published=%v, final recovery pass resumed %d FASEs", s, published, final)
		}
	}
	_, prev := crashedLog(t, base) // Forward 0: the counts before the first event
	var live [2]int64              // first and last forward point that found a published pc
	unfenced, nested := 0, 0
	for f := int64(1); f < k; f++ {
		s := base
		s.Forward = f
		log, st := crashedLog(t, s)
		published := log.RegionID != 0
		// Event f is the one the counts moved by.
		switch {
		case st.Flushes > prev.Flushes:
			unfenced++
		case st.Fences > prev.Fences:
			unfenced = 0
		case st.NTStores > prev.NTStores && unfenced > 0:
			t.Fatalf("forward event %d publishes or clears recovery_pc with %d write-backs since the last fence", f, unfenced)
		}
		prev = st
		if published {
			if live[0] == 0 {
				live[0] = f
			} else if live[1] != f-1 {
				t.Fatalf("recovery_pc published at forward event %d, cleared at %d, published again at %d", live[0], live[1]+1, f)
			}
			live[1] = f
		}
		if f%int64(pick(1, 7)) != 0 {
			continue
		}
		for _, s.Mode = range allModes {
			s.Recovery = nil
			run(s, published)
			m, err := RecoveryEvents(s)
			if err != nil {
				t.Fatal(err)
			}
			for r := int64(0); r < m && r < 100; r += int64(pick(1, 5)) {
				s.Recovery = []int64{r}
				run(s, published)
				nested++
			}
		}
	}
	// The pc is live from the first store's publish to the final release's
	// clear, and never inside the prefix or the read-only FASE around it;
	// either walk alone is four lock records and two slot clears of three
	// device events each.
	const walk = 6 * 3
	if live[0] <= walk || live[1] <= live[0] || live[1] >= k-walk {
		t.Fatalf("recovery_pc live from forward event %d to %d of %d: the prefix or the read-only FASE is gone from the workload", live[0], live[1], k-1)
	}
	t.Logf("%d forward events, recovery_pc live over %d..%d; %d second crashes", k-1, live[0], live[1], nested)
}
