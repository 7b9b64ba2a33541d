package chaos

import (
	"fmt"
	"math/rand"

	"github.com/ido-nvm/ido/internal/nvm"
)

// SweepOptions bounds a systematic sweep for one runtime. Zero values
// pick the defaults noted on each field.
type SweepOptions struct {
	Runtime  string
	Workload string          // default: DefaultWorkload(Runtime)
	Modes    []nvm.CrashMode // default: every adversary the runtime supports
	Seed     int64           // settle seed for every schedule (default 1)

	// ForwardPoints and RecoveryPoints cap how many crash points are
	// sampled per axis; the sweep strides evenly across the probed event
	// counts, always including the first point. Defaults 12 and 8.
	ForwardPoints  int
	RecoveryPoints int

	// DeepSamples is how many depth-2 and depth-3 schedules to sample
	// per mode (budgets drawn from a rand.Rand seeded with Seed, so the
	// sample set is itself replayable). Default 4 of each.
	DeepSamples int
}

// SweepStats summarizes a converged sweep.
type SweepStats struct {
	Schedules int
	// Depth[d] counts schedules whose injected recovery crashes actually
	// fired d levels deep (Depth[0]: forward crash only).
	Depth [MaxDepth + 1]int
	// HeapAudited: the workload audits its heap. Leaked then counts the
	// schedules whose crashes leaked a heap block and LeakedBytes is the
	// most one of them leaked (Run bounds each at one block per crash).
	HeapAudited bool
	Leaked      int
	LeakedBytes uint64
}

// DefaultWorkload maps a runtime name to its sweep workload.
func DefaultWorkload(runtime string) string {
	if len(runtime) > 3 && runtime[:3] == "vm-" {
		return "mapput"
	}
	return "counter"
}

// Sweep enumerates forward crash points × recovery crash points ×
// sampled nesting depths for one runtime, running every schedule
// through Run. The first non-converging schedule aborts the sweep; the
// returned error carries the replayable schedule string.
func Sweep(o SweepOptions) (SweepStats, error) {
	var st SweepStats
	if o.Workload == "" {
		o.Workload = DefaultWorkload(o.Runtime)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ForwardPoints <= 0 {
		o.ForwardPoints = 12
	}
	if o.RecoveryPoints <= 0 {
		o.RecoveryPoints = 8
	}
	if o.DeepSamples < 0 {
		o.DeepSamples = 0
	} else if o.DeepSamples == 0 {
		o.DeepSamples = 4
	}
	base := Schedule{Runtime: o.Runtime, Workload: o.Workload, Mode: nvm.CrashPersistAll, Seed: o.Seed, Forward: 1}
	_, c, err := newDriver(base)
	if err != nil {
		return st, err
	}
	modes := o.Modes
	if modes == nil {
		modes = c.modes
	}

	// K: total forward events. Budgets 1..K-1 crash mid-workload.
	k, err := ForwardEvents(base)
	if err != nil {
		return st, fmt.Errorf("chaos: sweep %s/%s: probing forward events: %w", o.Runtime, o.Workload, err)
	}
	if k < 2 {
		return st, fmt.Errorf("chaos: sweep %s/%s: workload has only %d injectable events", o.Runtime, o.Workload, k)
	}

	run := func(s Schedule) error {
		res, err := Run(s)
		if err != nil {
			return err
		}
		st.Schedules++
		st.Depth[res.depth()]++
		st.HeapAudited = res.HeapAudited
		if res.LeakedBlocks > 0 {
			st.Leaked++
			st.LeakedBytes = max(st.LeakedBytes, res.LeakedBytes)
		}
		return nil
	}

	for _, mode := range modes {
		if !c.supports(mode) {
			return st, fmt.Errorf("chaos: sweep %s: adversary %s not supported (supported: %s)", o.Runtime, ModeName(mode), modeNames(c.modes))
		}
		fstride := (k - 1 + int64(o.ForwardPoints) - 1) / int64(o.ForwardPoints)
		if fstride < 1 {
			fstride = 1
		}
		for f := int64(1); f < k; f += fstride {
			s := Schedule{Runtime: o.Runtime, Workload: o.Workload, Mode: mode, Seed: o.Seed, Forward: f}
			// M: events in the first recovery pass at this crash point.
			// Budgets 0..M-1 crash the pass.
			m, err := RecoveryEvents(s)
			if err != nil {
				return st, fmt.Errorf("chaos: sweep %s: probing recovery events at forward %d: %w", o.Runtime, f, err)
			}
			if m == 0 {
				// Nothing to crash inside recovery (refusing or no-op
				// runtimes): still verify the plain crash/recover cycle.
				if err := run(s); err != nil {
					return st, err
				}
				continue
			}
			rstride := (m + int64(o.RecoveryPoints) - 1) / int64(o.RecoveryPoints)
			if rstride < 1 {
				rstride = 1
			}
			for r := int64(0); r < m; r += rstride {
				s.Recovery = []int64{r}
				if err := run(s); err != nil {
					return st, err
				}
			}
		}

		// Sampled deeper nesting: crash the recovery of the recovery
		// (and once more at depth 3). Budgets past the end of a shorter
		// nested pass simply let that pass complete, so sampling from
		// the first pass's bound stays valid.
		rng := rand.New(rand.NewSource(o.Seed))
		for depth := 2; depth <= MaxDepth; depth++ {
			for i := 0; i < o.DeepSamples; i++ {
				f := 1 + rng.Int63n(k-1)
				s := Schedule{Runtime: o.Runtime, Workload: o.Workload, Mode: mode, Seed: o.Seed, Forward: f}
				m, err := RecoveryEvents(s)
				if err != nil {
					return st, fmt.Errorf("chaos: sweep %s: probing recovery events at forward %d: %w", o.Runtime, f, err)
				}
				if m == 0 {
					continue
				}
				for l := 0; l < depth; l++ {
					s.Recovery = append(s.Recovery, rng.Int63n(m))
				}
				if err := run(s); err != nil {
					return st, err
				}
			}
		}
	}
	return st, nil
}
