package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
)

// directRun is the fase-direct world: one table, one thread, a flat model
// of what every key must hold.
type directRun struct {
	n    *node
	th   persist.Thread
	rng  *rand.Rand
	seq  []uint32 // per key: mutations issued; the key holds valueOf(key, seq)
	keys uint32
}

func buildDirect(o runOpts) (*directRun, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	n, err := newNode(o.sc.region, 1, directBuckets, tr, false)
	if err != nil {
		return nil, err
	}
	if err := n.prefill(o.wl); err != nil {
		return nil, err
	}
	d := &directRun{n: n, keys: o.wl.keys, seq: make([]uint32, o.wl.keys),
		rng: rand.New(rand.NewSource(o.seed*7919 + 1))}
	for i := range d.seq {
		d.seq[i] = 1
	}
	if d.th, err = n.rt.NewThread(); err != nil {
		return nil, err
	}
	return d, nil
}

// draw picks the next operation of the Fig. 5a mix.
func (d *directRun) draw(setPct int) (key uint32, set bool) {
	key = uint32(d.rng.Int63n(int64(d.keys)))
	return key, d.rng.Intn(100) < setPct
}

// apply executes one operation. A get must return the key's latest
// value; ok reports that it did.
func (d *directRun) apply(key uint32, set bool) (ok bool) {
	k0, k1 := keyWords(key)
	if set {
		d.seq[key]++
		d.n.store.Set(d.th, 0, k0, k1, valueOf(key, d.seq[key]))
		return true
	}
	v, hit := d.n.store.Get(d.th, 0, k0, k1)
	return hit && v == valueOf(key, d.seq[key])
}

// timedGroup is how many calls fase-direct times together. One 6 us call
// cannot be timed to better than the host lets it run undisturbed: the
// 99th percentile of single calls was 12-20 us from run to run, all of it
// interrupts and neighbours. A group of eight is ~45 us of the program's
// own work, and a slow call in it still shows.
const timedGroup = 8

// timed runs n operations, timing them in groups of timedGroup and
// recording each group's time per call, and returns the wall time of the
// whole loop.
func (d *directRun) timed(n, setPct int, lat *latRec, res *result) time.Duration {
	start := now()
	for i := 0; i < n; i += timedGroup {
		g := min(timedGroup, n-i)
		t0 := now()
		for j := 0; j < g; j++ {
			key, set := d.draw(setPct)
			if !d.apply(key, set) {
				res.fail("get of key %d did not return its latest value", key)
			}
		}
		lat.add((now() - t0) / int64(g))
	}
	res.attempted += uint64(n)
	return time.Duration(now() - start)
}

// checkTable compares the whole table with a plain Go map fed the same op
// stream: the generator is replayed from the seed, so the map never saw
// the store.
func (d *directRun) checkTable(o runOpts, ops int, res *result) {
	want := make(map[uint32]uint64, d.keys)
	for k := uint32(0); k < d.keys; k++ {
		want[k] = valueOf(k, 1)
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + 1))
	seq := make(map[uint32]uint32, d.keys)
	for i := 0; i < ops; i++ {
		key := uint32(rng.Int63n(int64(d.keys)))
		if rng.Intn(100) < o.wl.setPct {
			seq[key]++
			want[key] = valueOf(key, 1+seq[key])
		}
	}
	for k, v := range want {
		k0, k1 := keyWords(k)
		got, hit := d.n.store.Get(d.th, 0, k0, k1)
		if !hit || got != v {
			res.fail("final table: key %d holds (%v, %d), the replayed map holds %d", k, hit, got, v)
			return
		}
	}
	if items := d.n.items(); items != uint64(len(want)) {
		res.fail("final table: %d items, the replayed map has %d", items, len(want))
	}
}

// crashCycle arms a device-event budget, runs operations until the device
// dies inside one, restarts, and checks the interrupted key: it must hold
// the value from before the interrupted set or the one it was writing.
func (d *directRun) crashCycle(o runOpts, rng *rand.Rand, res *result) (restartTimes, error) {
	d.n.reg.Dev.ArmLocalCrash(crashBudget(rng))
	var key uint32
	var before uint32
	crashed := func() (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(nvm.CrashSignal); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		for i := 0; i < 1<<20; i++ {
			var set bool
			key, set = d.draw(o.wl.setPct)
			before = d.seq[key]
			res.attempted++
			if !d.apply(key, set) {
				res.fail("get of key %d did not return its latest value", key)
			}
		}
		return false
	}()
	if !crashed {
		return restartTimes{}, fmt.Errorf("the crash budget never fired")
	}
	rt, err := d.n.restart(rng)
	if err != nil {
		return rt, err
	}
	if d.th, err = d.n.rt.NewThread(); err != nil {
		return rt, err
	}
	k0, k1 := keyWords(key)
	got, hit := d.n.store.Get(d.th, 0, k0, k1)
	switch {
	case hit && got == valueOf(key, d.seq[key]):
	case hit && got == valueOf(key, before):
		d.seq[key] = before
	default:
		res.fail("after restart key %d holds (%v, %d): neither seq %d nor %d", key, hit, got, before, d.seq[key])
	}
	return rt, nil
}

// runDirect runs fase-direct end to end.
func runDirect(o runOpts) (*result, error) {
	res := newResult()
	m := res.metrics
	var d *directRun
	var setups []float64
	for i := 0; i < o.sc.setups; i++ {
		d = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if d, err = buildDirect(o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	tr := d.n.tr
	nodes := []*node{d.n}
	ops := o.sc.directOps

	// The traced run first does the same number of ops with the recorders
	// off; the throughput lost with them on is the overhead. The table
	// check replays both stretches.
	var untraced float64
	replay := ops
	if tr != nil {
		el := d.timed(ops, o.wl.setPct, newLatRec(ops), res)
		untraced = ratio(float64(ops), el.Seconds())
		replay += ops
		tr.reset()
		tr.on.Store(true)
	}
	lat := newLatRec(ops)
	before := snapshot(nodes, nil, nil)
	elapsed := d.timed(ops, o.wl.setPct, lat, res)
	after := snapshot(nodes, nil, nil)
	if tr != nil {
		tr.on.Store(false)
	}
	ld := mergeDist(lat)
	m["ops_per_s"] = ratio(float64(ops), elapsed.Seconds())
	wq := windowed([]*latRec{lat}, windows, 0.50, 0.99)
	m["p50_us"], m["p99_us"] = wq[0]/1e3, wq[1]/1e3
	res.samples["p50_us"], res.samples["p99_us"] = len(ld), len(ld)
	countMetrics(m, &before, &after, uint64(ops), elapsed)
	m["nvm_bytes_per_item"] = ratio(float64(after.alloc.AllocatedBytes), float64(d.n.items()))
	m["client.sent"], m["client.completed"] = float64(ops), float64(ops)
	// One closed loop: its percentiles are also the open-loop ones, and
	// nothing is scheduled that could run late.
	m["client.open_p50_us"], m["client.open_p99_us"] = m["p50_us"], m["p99_us"]
	m["client.over_1ms_share"] = ld.shareOver(1e6)
	m["client.sched_lag_p99_us"] = 0
	m["client.p999_us"] = ld.quantile(0.999) / 1e3
	m["client.max_us"] = ld.max() / 1e3
	if tr != nil {
		m["trace.overhead_share"] = 1 - ratio(m["ops_per_s"], untraced)
		harvest(tr, nil, res, o)
	}
	d.checkTable(o, replay, res)
	m["client.failed"] = float64(res.failed)

	rng := rand.New(rand.NewSource(o.seed*31 + 7))
	var restarts restartStats
	for cycle := 0; cycle < o.sc.crashCycles; cycle++ {
		rt, err := d.crashCycle(o, rng, res)
		if err != nil {
			return nil, fmt.Errorf("crash cycle %d: %w", cycle, err)
		}
		restarts.add(rt)
	}
	restarts.report(m)
	m["setup_s"] = medianF(setups)
	m["peak_rss_mb"] = peakRSS()
	return res, nil
}
