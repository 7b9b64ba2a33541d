// Command idorecover demonstrates end-to-end crash recovery on the VM:
// it compiles the built-in benchmark kernels, runs a hash-map workload,
// injects a crash mid-FASE, settles the device under the chosen
// adversary, saves the surviving image to a file, reopens it in a fresh
// machine, runs §III-C recovery, and verifies the structure.
//
// Usage:
//
//	idorecover                       # random crash point, random adversary
//	idorecover -budget 500 -mode discard -image /tmp/heap.img
//	idorecover -traceout /tmp/rec.json   # Chrome trace of recovery's persist events
//
// After recovery it prints the audit report: which thread logs were found,
// what action recovery took on each (idle, scrubbed, resumed), the locks
// re-acquired, the recovery_pc resumed at, and the words restored.
//
// The -chaos flag switches to the deterministic crash-schedule harness
// (internal/chaos): forward crash points × nested recovery crash points
// for every runtime, each schedule verified against the CrashPersistAll
// oracle. Any failure prints a single replayable tuple:
//
//	idorecover -chaos                        # bounded sweep, all runtimes
//	idorecover -chaos -runtime vm-justdo     # one runtime, all adversaries
//	idorecover -chaos -runtime ido -workload cachemix   # delete-heavy cache mix
//	idorecover -chaos -replay 'ido:counter:random:7:12:3,0'
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"github.com/ido-nvm/ido/internal/chaos"
	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/vm"
)

func main() {
	budget := flag.Int64("budget", -2, "crash after N device events (-2: random)")
	modeStr := flag.String("mode", "random", "crash adversary: discard|random|persist-all")
	image := flag.String("image", "", "save the post-crash image to this file and reopen it")
	seed := flag.Int64("seed", 1, "workload seed")
	ops := flag.Int("ops", 200, "operations before the crash window")
	traceout := flag.String("traceout", "", "write a Chrome trace_event JSON file of recovery's persist events")
	chaosFlag := flag.Bool("chaos", false, "run the deterministic crash-schedule sweep instead of the demo")
	replay := flag.String("replay", "", "with -chaos: replay one schedule tuple (runtime:workload:mode:seed:forward:r1,r2|-)")
	runtimeFlag := flag.String("runtime", "", "with -chaos: sweep only this runtime (default: all)")
	workloadFlag := flag.String("workload", "", "with -chaos: sweep this workload (counter|mapput|cachemix|compact|prefix; default: per runtime)")
	points := flag.Int("points", 6, "with -chaos: crash points sampled per axis")
	flag.Parse()

	if *chaosFlag || *replay != "" {
		// -mode restricts the sweep only when given explicitly; its
		// demo-oriented default would otherwise hide two adversaries.
		sweepMode := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "mode" {
				sweepMode = *modeStr
			}
		})
		runChaos(*replay, *runtimeFlag, *workloadFlag, sweepMode, *seed, *points)
		return
	}

	var mode nvm.CrashMode
	switch *modeStr {
	case "discard":
		mode = nvm.CrashDiscard
	case "random":
		mode = nvm.CrashRandom
	case "persist-all":
		mode = nvm.CrashPersistAll
	default:
		fatalf("unknown -mode %q", *modeStr)
	}
	rng := rand.New(rand.NewSource(*seed))
	if *budget == -2 {
		*budget = int64(rng.Intn(*ops * 60))
	}

	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		fatalf("compile: %v", err)
	}
	reg := region.Create(1<<24, nvm.Config{Size: 1 << 24})
	lm := locks.NewManager(reg)
	m := vm.New(reg, lm, prog, vm.ModeIDO)
	mp, err := irprog.NewMap(reg, lm, 8)
	if err != nil {
		fatalf("%v", err)
	}
	reg.SetRoot(1, mp)
	th, err := m.NewThread()
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("running map_put workload; crash budget %d events, adversary %s\n", *budget, mode)
	m.SetCrashBudget(*budget)
	completed := map[uint64]uint64{}
	crashed := false
	for i := 0; i < *ops; i++ {
		k := uint64(rng.Intn(64) + 1)
		if _, err := th.Call("map_put", mp, k, k*10); err != nil {
			crashed = true
			fmt.Printf("CRASH after %d completed operations (mid-FASE)\n", i)
			break
		}
		completed[k] = k * 10
	}
	m.SetCrashBudget(-1)
	if !crashed {
		fmt.Println("workload completed before the budget expired; nothing to recover")
	}

	// Power failure: volatile state dies under the adversary.
	reg.Dev.Crash(mode, rng)

	// Optionally round-trip the surviving bytes through a file, exactly
	// like a recovery process re-mapping the region.
	if *image != "" {
		if err := reg.SaveFile(*image); err != nil {
			fatalf("save: %v", err)
		}
		reg, err = region.OpenFile(*image, nvm.Config{})
		if err != nil {
			fatalf("reopen: %v", err)
		}
		fmt.Printf("image saved to %s and reopened\n", *image)
	} else {
		reg, err = region.Attach(reg.Dev)
		if err != nil {
			fatalf("attach: %v", err)
		}
	}

	var tr *obs.Tracer
	if *traceout != "" {
		tr = obs.New(obs.DefaultConfig())
		reg.Dev.SetTracer(tr)
	}
	lm2 := locks.NewManager(reg)
	m2 := vm.New(reg, lm2, prog, vm.ModeIDO)
	st, err := m2.Recover()
	if err != nil {
		fatalf("recover: %v", err)
	}
	fmt.Printf("recovery: %d thread logs examined, %d FASEs resumed in %s\n",
		st.Threads, st.Resumed, st.Elapsed)
	if st.Audit != nil {
		fmt.Print(st.Audit)
	}
	if tr != nil {
		n, err := tr.ExportChromeFile(*traceout)
		if err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("trace: %s (%d events)\n", *traceout, n)
	}

	// Verify: every completed put survives, the map is well formed.
	mp2 := reg.Root(1)
	th2, err := m2.NewThread()
	if err != nil {
		fatalf("%v", err)
	}
	for k, v := range completed {
		r, err := th2.Call("map_get", mp2, k)
		if err != nil {
			fatalf("map_get: %v", err)
		}
		if r[0] != 1 || r[1] != v {
			fatalf("VERIFY FAILED: key %d = %v, want %d", k, r, v)
		}
	}
	fmt.Printf("verified: all %d completed puts durable and readable\n", len(completed))
}

// runChaos drives the internal/chaos harness: either one replayed
// schedule (printed attempt by attempt, with the recovery audit of every
// pass that completed) or a bounded sweep over the selected runtimes.
func runChaos(replay, runtimeF, workloadF, modeStr string, seed int64, points int) {
	if replay != "" {
		s, err := chaos.ParseSchedule(replay)
		if err != nil {
			fatalf("%v", err)
		}
		res, err := chaos.Run(s)
		if err != nil {
			fatalf("replay diverged: %v", err)
		}
		printChaosResult(res)
		fmt.Printf("schedule %s converged\n", s)
		return
	}

	var modes []nvm.CrashMode
	if modeStr != "" {
		m, err := chaos.ParseMode(modeStr)
		if err != nil {
			fatalf("%v", err)
		}
		modes = []nvm.CrashMode{m}
	}
	rts := chaos.Runtimes()
	if runtimeF != "" {
		rts = []string{runtimeF}
	}
	total := 0
	for _, rt := range rts {
		st, err := chaos.Sweep(chaos.SweepOptions{
			Runtime:        rt,
			Workload:       workloadF,
			Modes:          modes,
			Seed:           seed,
			ForwardPoints:  points,
			RecoveryPoints: points,
			DeepSamples:    2,
		})
		if err != nil {
			fatalf("%s: sweep diverged: %v\n(rerun in isolation with: idorecover -chaos -replay '<the schedule in the message above>')", rt, err)
		}
		fmt.Printf("%-10s %4d schedules converged; nesting-depth histogram %v", rt, st.Schedules, st.Depth)
		if st.HeapAudited {
			fmt.Printf("; %d leaked a heap block (at most %d bytes)", st.Leaked, st.LeakedBytes)
		}
		fmt.Println()
		total += st.Schedules
	}
	fmt.Printf("chaos sweep: %d schedules converged across %d runtimes\n", total, len(rts))
}

func printChaosResult(res *chaos.Result) {
	for _, a := range res.Attempts {
		budget := fmt.Sprintf("budget %d", a.Budget)
		if a.Budget < 0 {
			budget = "clean"
		}
		switch {
		case a.Crashed:
			fmt.Printf("recovery pass %d (%s): crashed mid-recovery\n", a.Index, budget)
		case a.Err != "":
			fmt.Printf("recovery pass %d (%s): refused: %s\n", a.Index, budget, a.Err)
		default:
			fmt.Printf("recovery pass %d (%s): completed\n", a.Index, budget)
		}
		if a.Audit != nil {
			fmt.Print(a.Audit)
		}
	}
	if res.LeakedBlocks > 0 {
		fmt.Printf("heap: the schedule's crashes leaked %d bytes in %d blocks\n", res.LeakedBytes, res.LeakedBlocks)
	}
	keys := make([]string, 0, len(res.Final))
	for k := range res.Final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("observable %-8s = %d (oracle %d, persist-all %d)\n",
			k, res.Final[k], res.Oracle[k], res.PersistAll[k])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "idorecover: "+format+"\n", args...)
	os.Exit(1)
}
