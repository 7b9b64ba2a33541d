// Command idobench regenerates the tables and figures of the iDO paper's
// evaluation on the simulated-NVM substrate.
//
// Usage:
//
//	idobench -exp all                 # everything, paper-scale parameters
//	idobench -exp fig5 -quick         # one experiment, smoke-scale
//	idobench -exp fig7 -duration 1s -threads 1,2,4,8,16
//
// Experiments: fig5, fig6, fig7, fig8, table1, fig9, ablations, all. See
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-versus-measured notes. The serving stack is measured by
// `go run ./benchmark`, not here.
//
// -workers N runs independent figure points through a bounded pool.
//
// -traceout FILE attaches a persist-event tracer to every device the run
// creates and writes a Chrome trace_event JSON file (load it at
// chrome://tracing or https://ui.perfetto.dev) when the run finishes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ido-nvm/ido/internal/bench"
	"github.com/ido-nvm/ido/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5|fig6|fig7|fig8|table1|fig9|ablations|all")
	quick := flag.Bool("quick", false, "smoke-scale parameters")
	duration := flag.Duration("duration", 0, "override measurement interval per point")
	threads := flag.String("threads", "", "override thread sweep, e.g. 1,2,4,8")
	traceout := flag.String("traceout", "", "write a Chrome trace_event JSON file of all persist events")
	seed := flag.Int64("seed", 1, "seed for every adversarial crash settle (replay a failure with the seed it printed)")
	workers := flag.Int("workers", 1, "independent figure points run concurrently (1 = serial, the accurate-measurement default)")
	flag.Parse()

	o := bench.DefaultOptions()
	if *quick {
		o = bench.QuickOptions()
	}
	o.Out = os.Stdout
	if *duration > 0 {
		o.Duration = *duration
	}
	if *threads != "" {
		var sweep []int
		for _, tok := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 1 {
				fatalf("bad -threads value %q", tok)
			}
			sweep = append(sweep, n)
		}
		o.Threads = sweep
	}
	if *traceout != "" {
		o.Tracer = obs.New(obs.DefaultConfig())
	}
	o.Seed = *seed
	o.Workers = *workers

	start := time.Now()
	var err error
	switch *exp {
	case "all":
		err = bench.RunAll(o)
	case "fig5":
		_, err = bench.RunFig5(o)
	case "fig6":
		_, err = bench.RunFig6(o)
	case "fig7":
		_, err = bench.RunFig7(o)
	case "fig8":
		_, err = bench.RunFig8(o)
	case "table1":
		_, err = bench.RunTable1(o)
	case "fig9":
		_, err = bench.RunFig9(o)
	case "ablations":
		_, err = bench.RunAblations(o)
	default:
		fatalf("unknown experiment %q", *exp)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if o.Tracer != nil {
		n, err := o.Tracer.ExportChromeFile(*traceout)
		if err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("trace: %s (%d events, %d dropped)\n", *traceout, n, o.Tracer.Dropped())
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "idobench: "+format+"\n", args...)
	os.Exit(1)
}
