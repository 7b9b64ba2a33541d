package bench

import (
	"fmt"
	"math/rand"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/idem"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/stats"
	"github.com/ido-nvm/ido/internal/vm"
)

// AblationResult summarizes one design-choice experiment from DESIGN.md.
type AblationResult struct {
	Name   string
	Labels []string
	Values []float64
	Unit   string
}

// RunAblations measures the three design choices DESIGN.md calls out:
// persist coalescing (§IV-B), the single-fence indirect-lock protocol
// (§III-B) versus JUSTDO's two-fence protocol, and idempotent-region
// granularity versus degenerate per-store regions.
func RunAblations(o Options) ([]AblationResult, error) {
	var out []AblationResult

	// 1. Persist coalescing: write-backs per Memcached set with and
	// without packing register slots into shared cache lines (§IV-B).
	// Measured as a deterministic event count rather than throughput.
	coal := AblationResult{Name: "persist-coalescing (write-backs per memcached set)", Unit: "clwb/op"}
	for _, name := range []string{"ido", "ido-nocoalesce"} {
		fpo, err := flushesPerSet(o, mkSpec(name))
		if err != nil {
			return nil, err
		}
		coal.Labels = append(coal.Labels, name)
		coal.Values = append(coal.Values, fpo)
	}
	out = append(out, coal)

	// 2. Lock protocol: persist fences per lock-dominated operation
	// (ordered-list get) under iDO's single-fence indirect locking vs
	// JUSTDO's two-fence intention/ownership protocol.
	lockAbl := AblationResult{Name: "lock protocol (fences per list get)", Unit: "fences/op"}
	for _, name := range []string{"ido", "justdo"} {
		fpo, err := fencesPerListGet(o, mkSpec(name))
		if err != nil {
			return nil, err
		}
		lockAbl.Labels = append(lockAbl.Labels, name)
		lockAbl.Values = append(lockAbl.Values, fpo)
	}
	out = append(out, lockAbl)

	// 3. Region granularity: the VM runs mc_set traffic with normal
	// hitting-set regions vs forced per-store cuts (a JUSTDO-shaped
	// degenerate partition) and reports log operations per op.
	gran := AblationResult{Name: "region granularity (log ops per mc_set)", Unit: "log-ops/op"}
	for _, cfg := range []struct {
		label string
		c     compile.Config
	}{
		{"hitting-set", compile.Config{}},
		{"per-store", compile.Config{Idem: idem.Config{MaxStoresPerRegion: 1}}},
	} {
		lpo, err := logOpsPerSet(o, cfg.c)
		if err != nil {
			return nil, err
		}
		gran.Labels = append(gran.Labels, cfg.label)
		gran.Values = append(gran.Values, lpo)
	}
	out = append(out, gran)

	printAblations(o, out)
	return out, nil
}

func flushesPerSet(o Options, sp spec) (float64, error) {
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, err
	}
	env := &memcache.Env{Reg: w.reg, LM: w.lm}
	c, _, err := memcache.New(env, 1<<10)
	if err != nil {
		return 0, err
	}
	th, err := w.rt.NewThread()
	if err != nil {
		return 0, err
	}
	for k := uint64(1); k <= 512; k++ {
		c.Set(th, k, k^3, k)
	}
	w.reg.Dev.ResetStats()
	const ops = 500
	for k := uint64(1); k <= ops; k++ {
		c.Set(th, k, k^3, k*2)
	}
	return float64(w.reg.Dev.Stats().Flushes) / ops, nil
}

func fencesPerListGet(o Options, sp spec) (float64, error) {
	w, err := newWorld(o, sp.mk, 0)
	if err != nil {
		return 0, err
	}
	env := &ds.Env{Reg: w.reg, LM: w.lm}
	l, _, err := ds.NewList(env)
	if err != nil {
		return 0, err
	}
	pre, err := w.rt.NewThread()
	if err != nil {
		return 0, err
	}
	for k := uint64(1); k <= 64; k++ {
		k := k
		pre.Exec(func() { l.Put(pre, k, k) })
	}
	th, err := w.rt.NewThread()
	if err != nil {
		return 0, err
	}
	w.reg.Dev.ResetStats()
	rng := rand.New(rand.NewSource(5))
	const ops = 500
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(64)) + 1
		th.Exec(func() { l.Get(th, k) })
	}
	return float64(w.reg.Dev.Stats().Fences) / ops, nil
}

func logOpsPerSet(o Options, cfg compile.Config) (float64, error) {
	prog, err := irprog.Compile(cfg)
	if err != nil {
		return 0, err
	}
	reg := region.Create(1<<25, nvmConfig(1<<25, 0))
	lm := locks.NewManager(reg)
	m := vm.New(reg, lm, prog, vm.ModeIDO)
	tb, err := irprog.NewKVTable(reg, lm, 64, true)
	if err != nil {
		return 0, err
	}
	th, err := m.NewThread()
	if err != nil {
		return 0, err
	}
	const ops = 500
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(256)) + 1
		if _, err := th.Call("mc_set", tb, k, k); err != nil {
			return 0, err
		}
	}
	return float64(m.Stats().LoggedEntries) / ops, nil
}

func printAblations(o Options, rows []AblationResult) {
	out := o.out()
	for _, r := range rows {
		fprintf(out, "Ablation: %s\n", r.Name)
		var tb stats.Table
		for i, l := range r.Labels {
			tb.AddRow(l, fmt.Sprintf("%.3f %s", r.Values[i], r.Unit))
		}
		fprintf(out, "%s\n", tb.String())
	}
}
