package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the repository's driver uses to judge a benchmark's spread. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // past the clamp this extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 when
// there are too few runs to have one.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(medianF(v)))
}

// verdict judges one end-to-end metric of one workload. worse is how much
// worse the new median is than the base median as a share of the base
// (negative: better).
func verdict(d metricDef, base, cur []float64) (worse float64, word string) {
	bm, cm := medianF(base), medianF(cur)
	worse = ratio(cm-bm, bm)
	allBetter := slices.Max(cur) < slices.Min(base)
	if d.better == "higher" {
		worse = ratio(bm-cm, bm)
		allBetter = slices.Min(cur) > slices.Max(base)
	}
	switch {
	case max(spread(base), spread(cur)) > d.bound:
		// The runs of one side disagree by more than the bound: a
		// difference of medians that size proves nothing, unless every run
		// of the new side beats every run of the base.
		if allBetter {
			return worse, "improved"
		}
		return worse, "unresolved"
	case worse > d.bound:
		return worse, "regressed"
	case worse < -d.bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareFiles prints, per workload and end-to-end metric, the base and
// new medians, their ratio and a verdict, and flags calibration drift. It
// returns 1 if anything regressed or a side failed its output checks.
func compareFiles(w io.Writer, basePath, newPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := readResults(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	status := 0
	collect := func(f *resultFile, wl, metric string) (vals, fences []float64, bad int) {
		for _, r := range f.Runs {
			if r.Workload != wl || r.Trace != 0 || r.Quick {
				continue
			}
			if !r.Correct {
				bad++
			}
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v.Value)
				fences = append(fences, r.Host.FenceCallNS)
			}
		}
		return
	}
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "new/base", "spr.b", "spr.n", "verdict")
	for _, wl := range workloads {
		var bf, cf []float64
		for _, d := range endToEnd {
			bv, f1, bad1 := collect(base, wl.name, d.name)
			cv, f2, bad2 := collect(cur, wl.name, d.name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bf, cf = f1, f2
			if bad1+bad2 > 0 {
				status = 1
			}
			_, word := verdict(d, bv, cv)
			if word == "regressed" {
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %8.4f %6.1f%% %6.1f%%  %s (bound %.0f%%, %d vs %d runs)\n",
				wl.name, d.name, medianF(bv), medianF(cv), ratio(medianF(cv), medianF(bv)),
				100*spread(bv), 100*spread(cv), word, 100*d.bound, len(bv), len(cv))
		}
		if len(bf) > 0 && len(cf) > 0 {
			b, c := medianF(bf), medianF(cf)
			if drift := math.Abs(ratio(c-b, b)); drift > 0.05 {
				fmt.Fprintf(w, "%-14s CALIBRATION DRIFT: nvm.fence_call_ns %.1f -> %.1f (%.1f%%): the two sides ran different devices\n",
					wl.name, b, c, 100*drift)
			}
		}
	}
	if status != 0 {
		fmt.Fprintln(w, "result: REGRESSED or failed output checks")
	}
	return status
}
