package chaos

import (
	"fmt"
	"sync"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/vm"
)

const (
	mapBuckets = 4
	mapOps     = 6
	// walkBound caps structure traversals so a corrupted next pointer
	// surfaces as an invariant error instead of an infinite loop.
	walkBound = 1 << 12
)

var (
	progOnce sync.Once
	progVal  *compile.Compiled
	progErr  error
)

func compiledProg() (*compile.Compiled, error) {
	progOnce.Do(func() { progVal, progErr = irprog.Compile(compile.Config{}) })
	return progVal, progErr
}

// vmDriver runs the compiled IR kernels on the VM in one of its three
// modes, over the map_put workload.
type vmDriver struct {
	mode vm.Mode

	reg *region.Region
	lm  *locks.Manager
	m   *vm.Machine
	th  *vm.Thread
	mp  uint64
}

func newVMDriver(s Schedule) (driver, caps, error) {
	var mode vm.Mode
	c := caps{modes: allModes, exactPA: true}
	switch s.Runtime {
	case "vm-ido":
		mode = vm.ModeIDO
	case "vm-justdo":
		// JUSTDO assumes nonvolatile caches (§I), but the VM's
		// implementation fences each ⟨addr, val⟩ record durable before
		// the single pc store that publishes it, so replay is exact
		// under the volatile-cache adversaries too.
		mode = vm.ModeJUSTDO
	case "vm-origin":
		mode = vm.ModeOrigin
		c.modes = []nvm.CrashMode{nvm.CrashPersistAll}
	default:
		return nil, caps{}, fmt.Errorf("chaos: unknown runtime %q (want one of %v)", s.Runtime, Runtimes())
	}
	if s.Workload != "mapput" {
		return nil, caps{}, fmt.Errorf("chaos: runtime %s: unknown workload %q (VM runtimes run \"mapput\")", s.Runtime, s.Workload)
	}
	return &vmDriver{mode: mode}, c, nil
}

func (d *vmDriver) region() *region.Region { return d.reg }

func (d *vmDriver) prepare(seed int64) error {
	err := d.attach(region.Create(1<<22, nvm.Config{}))
	if err != nil {
		return err
	}
	if d.mp, err = irprog.NewMap(d.reg, d.lm, mapBuckets); err != nil {
		return err
	}
	d.reg.SetRoot(rootChaosMap, d.mp)
	d.th, err = d.m.NewThread()
	return err
}

// forward performs mapOps puts with a deterministic key sequence (the
// schedule replays bit-for-bit; no clock or rng involved).
func (d *vmDriver) forward() error {
	for i := 0; i < mapOps; i++ {
		k := uint64((i*5)%7 + 1)
		if _, err := d.th.Call("map_put", d.mp, k, k*100+uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

func (d *vmDriver) attach(reg *region.Region) error {
	prog, err := compiledProg()
	if err != nil {
		return err
	}
	d.reg = reg
	d.lm = locks.NewManager(reg)
	d.m = vm.New(reg, d.lm, prog, d.mode)
	d.mp = reg.Root(rootChaosMap)
	return nil
}

func (d *vmDriver) recover() (persist.RecoveryStats, error) {
	return d.m.Recover()
}

// walk visits every node of every bucket chain: fn(bucket, key, val,
// lockHolder) for the nodes, and the bucket-header lock holders via
// fn(bucket, 0, 0, holder) with node=false.
func (d *vmDriver) walk(fn func(bucket int, node bool, key, val, holder uint64) error) error {
	dev := d.reg.Dev
	n := int(dev.Load64(d.mp))
	if n != mapBuckets {
		return fmt.Errorf("map header: %d buckets, want %d", n, mapBuckets)
	}
	for b := 0; b < n; b++ {
		hdr := dev.Load64(d.mp + 8 + uint64(b)*8)
		if hdr == 0 {
			return fmt.Errorf("bucket %d: nil list header", b)
		}
		if err := fn(b, false, 0, 0, dev.Load64(hdr+24)); err != nil {
			return err
		}
		steps := 0
		for node := dev.Load64(hdr + 16); node != 0; node = dev.Load64(node + 16) {
			if steps++; steps > walkBound {
				return fmt.Errorf("bucket %d: chain exceeds %d nodes (cycle?)", b, walkBound)
			}
			if err := fn(b, true, dev.Load64(node), dev.Load64(node+8), dev.Load64(node+24)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *vmDriver) observe() (map[string]uint64, error) {
	out := map[string]uint64{}
	err := d.walk(func(b int, node bool, key, val, holder uint64) error {
		if node {
			out[fmt.Sprintf("k%d", key)] = val
		}
		return nil
	})
	return out, err
}

// invariants checks the structural contract map_put maintains: every
// chain strictly ascending (so no duplicate keys) and every key hashed
// to its own bucket.
func (d *vmDriver) invariants() error {
	last := make([]uint64, mapBuckets)
	seen := make([]bool, mapBuckets)
	return d.walk(func(b int, node bool, key, val, holder uint64) error {
		if !node {
			return nil
		}
		if int(key%mapBuckets) != b {
			return fmt.Errorf("key %d in bucket %d, want bucket %d", key, b, key%mapBuckets)
		}
		if seen[b] && key <= last[b] {
			return fmt.Errorf("bucket %d: keys out of order (%d after %d)", b, key, last[b])
		}
		seen[b], last[b] = true, key
		return nil
	})
}

func (d *vmDriver) locksFree() error {
	return d.walk(func(b int, node bool, key, val, holder uint64) error {
		if holder == 0 {
			return fmt.Errorf("bucket %d: zero lock holder", b)
		}
		l := d.lm.ByHolder(holder)
		if !l.TryAcquire() {
			return fmt.Errorf("bucket %d: lock (holder %#x) still held", b, holder)
		}
		l.Release()
		return nil
	})
}
