// Command idolog inspects the iDO log list inside a persistent region
// image — the post-mortem view a recovery engineer wants: which threads
// were mid-FASE at the crash, their recovery_pc values, the boundary
// records and register file a resume would see, and the locks they held.
//
// Usage:
//
//	idolog heap.img            # inspect an image saved with SaveFile
//	idolog -demo               # build a crashed image in memory and dump it
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

func main() {
	demo := flag.Bool("demo", false, "build and dump a demo crashed image")
	flag.Parse()

	var reg *region.Region
	switch {
	case *demo:
		reg = buildDemo()
	case flag.NArg() == 1:
		var err error
		reg, err = region.OpenFile(flag.Arg(0), nvm.Config{})
		if err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("usage: idolog heap.img | idolog -demo")
	}

	if err := dump(os.Stdout, reg); err != nil {
		fatalf("stopped at a log recovery would reject: %v", err)
	}
}

// dump prints every thread log in reg: the decoded recovery_pc, the
// boundary records it covers, the register file they replay to, the
// recorded locks, and what a recovery pass would do with the log. A
// corrupt log ends the dump: the logs before it are printed, the decoder's
// error returned.
func dump(w io.Writer, reg *region.Region) error {
	entries, err := idolog.Inspect(reg)
	if len(entries) == 0 && err == nil {
		fmt.Fprintln(w, "no iDO thread logs in this region")
		return nil
	}
	fmt.Fprintf(w, "%d thread log(s):\n", len(entries))
	for _, e := range entries {
		state := "idle"
		words := len(e.Pairs)
		switch {
		case e.PC == 0 && len(e.Locks) > 0:
			// Live slots under recovery_pc == 0: the FASE had not stored yet.
			state = "in a read-only prefix or robbed"
		case e.Raw && e.PC != 0:
			state = fmt.Sprintf("MID-FASE at its runtime's own recovery_pc %#x", e.PC)
			words = e.Regs + 1
		case e.PC != 0:
			over := "zeros"
			if e.BaseValid {
				over = "the compacted base image"
				words += e.Regs
			}
			state = fmt.Sprintf("MID-FASE at region %#x (%d record pair(s) over %s)", e.RegionID, len(e.Pairs), over)
		}
		fmt.Fprintf(w, "  thread %d @ %#x (%d registers): %s\n", e.ThreadID, e.LogAddr, e.Regs, state)
		for i, s := range e.Pairs {
			fmt.Fprintf(w, "    pair %-2d r%-3d = %d (%#x)\n", i, s.Reg, s.Val, s.Val)
		}
		if e.BaseValid {
			// The pairs alone no longer tell what the resume entry gets.
			for r, v := range e.RF {
				fmt.Fprintf(w, "    resume r%-3d = %d (%#x)\n", r, v, v)
			}
		}
		if len(e.Locks) > 0 {
			fmt.Fprintf(w, "    holds %d lock(s):", len(e.Locks))
			for _, h := range e.Locks {
				fmt.Fprintf(w, " holder@%#x", h)
			}
			fmt.Fprintln(w)
		}
		// Audit preview: what a recovery pass would record for this log.
		if e.Raw && e.PC != 0 {
			fmt.Fprintf(w, "    recovery would: have the runtime resume it (%s), re-acquiring %d lock(s), restoring %d word(s)\n",
				obs.AuditReplayed, len(e.Locks), words)
		} else if e.PC != 0 {
			fmt.Fprintf(w, "    recovery would: %s at region %#x, re-acquiring %d lock(s), restoring %d word(s)\n",
				obs.AuditResumed, e.RegionID, len(e.Locks), words)
		} else if len(e.Locks) > 0 {
			fmt.Fprintf(w, "    recovery would: %s the lock slots, resume nothing\n", obs.AuditScrubbed)
		} else {
			fmt.Fprintf(w, "    recovery would: %s\n", obs.AuditIdle)
		}
	}
	return err
}

// buildDemo creates a region, runs a FASE partway, and "crashes" it.
func buildDemo() *region.Region {
	reg := region.Create(1<<20, nvm.Config{})
	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		fatalf("%v", err)
	}
	l, err := lm.Create()
	if err != nil {
		fatalf("%v", err)
	}
	cell, err := reg.Alloc.Alloc(8)
	if err != nil {
		fatalf("%v", err)
	}
	t, err := rt.NewThread()
	if err != nil {
		fatalf("%v", err)
	}
	t.Lock(l)
	t.Boundary(0x1234, persist.RV(0, cell), persist.RV(1, 42))
	t.Store64(cell, 41)
	// Power fails here, mid-FASE.
	reg.Dev.Crash(nvm.CrashDiscard, nil)
	reg2, err := region.Attach(reg.Dev)
	if err != nil {
		fatalf("%v", err)
	}
	return reg2
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "idolog: "+format+"\n", args...)
	os.Exit(1)
}
