package bench

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/nvm"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/stats"
)

// Resume-region IDs for the commit-pipeline microbenchmark's boundaries
// (bench runs never crash, but Boundary still persists them).
const (
	ridGCBenchA = 0x170
	ridGCBenchB = 0x171
)

// gcCostScale multiplies the baseline device cost model for the
// group-commit and server experiments: flush 500 ns, fence 4 µs, NT
// store 1.5 µs — the cost ratio of a slow flush-based NVM part, where
// modeled persistence dominates the host's own synchronization. Direct
// and shared series run under the identical scaled model.
const gcCostScale = 10

// GCResult is one cell of the group-commit sweep.
type GCResult struct {
	Series      string // "direct" or "shared"
	Threads     int
	Ops         uint64
	MopsPS      float64
	NsPerOp     float64 // average per-thread commit latency
	Fences      uint64  // fence drains in the measured interval
	FencesPerOp float64
}

// RunGroupCommit regenerates the group-commit experiment: iDO commit
// throughput on per-thread private counter FASEs, every fence draining
// itself ("direct") versus drain sharing ("shared"), sweeping thread
// count. Each thread owns its own lock and counter line, so the persist
// fences are the only cross-thread serialization — sharing's best case,
// and the direct path's worst (every fence queues on the device's
// write-queue drain). A lone committer shares nothing, so the two
// series must agree at one thread.
func RunGroupCommit(o Options) ([]GCResult, error) {
	threads := []int{1, 2, 4, 8, 16}
	if o.Quick {
		threads = []int{1, 4, 16}
	}
	type job struct {
		series string
		gc     bool
		nt     int
	}
	var jobs []job
	for _, nt := range threads {
		jobs = append(jobs, job{"direct", false, nt})
	}
	for _, nt := range threads {
		jobs = append(jobs, job{"shared", true, nt})
	}
	out := make([]GCResult, len(jobs))
	err := runPoints(o, len(jobs), func(i int) error {
		j := jobs[i]
		po := o
		po.GroupCommit = j.gc
		ops, fences, err := runGroupCommitPoint(po, fmt.Sprintf("gc/%s/t%d", j.series, j.nt), j.nt)
		if err != nil {
			return fmt.Errorf("groupcommit %s/t%d: %w", j.series, j.nt, err)
		}
		r := GCResult{Series: j.series, Threads: j.nt, Ops: ops, Fences: fences}
		r.MopsPS = stats.Throughput(ops, o.Duration)
		if ops > 0 {
			r.NsPerOp = float64(o.Duration.Nanoseconds()) * float64(j.nt) / float64(ops)
			r.FencesPerOp = float64(fences) / float64(ops)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{Title: "GroupCommit iDO commit throughput (private-lock counter FASEs)",
		XLabel: "threads", YLabel: "Mops/s"}
	for i, j := range jobs {
		fig.Add(j.series, float64(j.nt), out[i].MopsPS)
	}
	fprintf(o.out(), "%s\n", fig)
	for _, r := range out {
		fprintf(o.out(), "  %-8s t=%-2d %8.3f Mops/s %8.0f ns/op %6.2f fences/op\n",
			r.Series, r.Threads, r.MopsPS, r.NsPerOp, r.FencesPerOp)
	}
	return out, nil
}

// runGroupCommitPoint measures one cell: nThreads workers each running
// lock → boundary → load → boundary → store → unlock over a private
// counter. Returns completed commits and the device fence count for the
// measured interval.
func runGroupCommitPoint(o Options, label string, nThreads int) (uint64, uint64, error) {
	cfg := nvmConfig(o.DeviceBytes, 0)
	cfg.FlushNS *= gcCostScale
	cfg.FenceNS *= gcCostScale
	cfg.NTStoreNS *= gcCostScale
	cfg.Tracer = o.tracer(label)
	cfg.GroupCommit = nvm.GroupCommitConfig{Enabled: o.GroupCommit}
	w, err := newWorldCfg(mkSpec("ido").mk, o.DeviceBytes, cfg)
	if err != nil {
		return 0, 0, err
	}
	dev := w.reg.Dev
	lk := make([]*locks.Lock, nThreads)
	ctr := make([]uint64, nThreads)
	for i := range lk {
		l, err := w.lm.Create()
		if err != nil {
			return 0, 0, err
		}
		// A full line per counter: disjoint dirty sets.
		c, err := w.reg.Alloc.Alloc(64)
		if err != nil {
			return 0, 0, err
		}
		dev.Store64(c, 0)
		dev.CLWB(c)
		lk[i], ctr[i] = l, c
	}
	dev.Fence()
	dev.ResetStats()
	ops, err := measure(w, nThreads, o.Duration, func(i int, t persist.Thread) func() {
		l, c := lk[i], ctr[i]
		return func() {
			t.Lock(l)
			t.Boundary(ridGCBenchA)
			v := t.Load64(c)
			t.Boundary(ridGCBenchB, persist.RV(0, v))
			t.Store64(c, v+1)
			t.Unlock(l)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return ops, dev.Stats().Fences, nil
}
