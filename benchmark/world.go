package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/replica"
	"github.com/ido-nvm/ido/internal/server"
)

// decorate, when non-nil, wraps every store a node builds; the output
// checking test uses it to corrupt values and see the run fail.
var decorate func(server.Store) server.Store

// node is one machine: a device with its region, runtime and store.
type node struct {
	reg   *region.Region
	lm    *locks.Manager
	rt    persist.Runtime
	store server.Store
	mc    *server.McStore
	tr    *tracer
	sb    bool // standby role (only labels its traced threads)
}

// wrap installs the decorators over a freshly built or attached runtime
// and store.
func (n *node) wrap(rt persist.Runtime, mc *server.McStore) {
	n.rt, n.mc, n.store = rt, mc, mc
	if decorate != nil {
		n.store = decorate(n.store)
	}
	if n.tr != nil {
		n.rt = &tracedRuntime{Runtime: rt, tr: n.tr, standby: n.sb}
		n.store = &tracedStore{Store: n.store, tr: n.tr}
	}
}

// newNode formats a region under the cost model and creates the store.
func newNode(bytes, nshards, nbuckets int, tr *tracer, standby bool) (*node, error) {
	n := &node{tr: tr, sb: standby}
	n.reg = region.Create(bytes, costModel())
	n.lm = locks.NewManager(n.reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(n.reg, n.lm); err != nil {
		return nil, fmt.Errorf("attach runtime: %w", err)
	}
	mc, err := server.NewMcStore(&memcache.Env{Reg: n.reg, LM: n.lm}, nshards, nbuckets)
	if err != nil {
		return nil, fmt.Errorf("create store: %w", err)
	}
	n.wrap(rt, mc)
	return n, nil
}

// prefill stores valueOf(key, 1) under the first wl.prefill/conns local
// keys of every connection, straight into the store.
func (n *node) prefill(wl *workload) error {
	th, err := n.rt.NewThread()
	if err != nil {
		return fmt.Errorf("prefill thread: %w", err)
	}
	for i := uint32(0); i < wl.prefill/conns; i++ {
		for c := uint32(0); c < conns; c++ {
			key := i*conns + c
			k0, k1 := keyWords(key)
			n.store.Set(th, n.store.ShardOf(k0, k1), k0, k1, valueOf(key, 1))
		}
	}
	return nil
}

// restartTimes splits one restart.
type restartTimes struct {
	total   time.Duration // device back -> store recovered
	attach  time.Duration // region.Attach: the allocator's heap scan
	recover time.Duration // Runtime.Recover
	resumed int
}

// restartStats gathers a run's restarts into its four restart metrics.
type restartStats struct {
	totalMS, attachMS, recoverUS []float64
	resumed                      float64
}

func (r *restartStats) add(rt restartTimes) {
	r.totalMS = append(r.totalMS, float64(rt.total.Nanoseconds())/1e6)
	r.attachMS = append(r.attachMS, float64(rt.attach.Nanoseconds())/1e6)
	r.recoverUS = append(r.recoverUS, float64(rt.recover.Nanoseconds())/1e3)
	r.resumed += float64(rt.resumed)
}

func (r *restartStats) report(m map[string]float64) {
	m["restart_ms"] = medianF(r.totalMS)
	m["nvalloc.attach_ms"] = medianF(r.attachMS)
	m["core.recover_us"] = medianF(r.recoverUS)
	m["core.resumed_per_crash"] = ratio(r.resumed, float64(len(r.totalMS)))
}

// restart is a power failure and the process start that follows it:
// crash the device (each dirty word persists or not by rng), re-map the
// region, attach a fresh runtime and the store, and resume every
// interrupted FASE. The node then holds the recovered world.
func (n *node) restart(rng *rand.Rand) (restartTimes, error) {
	var rt restartTimes
	dev := n.reg.Dev
	dev.ArmLocalCrash(-1)
	dev.Crash(nvm.CrashRandom, rng)
	// Collect the Go heap before the clock starts. The simulated devices
	// are Go slices (0.5 GiB per node), so the collector's goal sits a
	// gigabyte above the live heap and it never runs by itself here: what a
	// restart allocates (the allocator's free lists, a Thread with its
	// tables per log Recover walks) would land on pages never touched
	// before, 8 first touches in the first cycle and 67 in the fifteenth at
	// ~9 us each on the reference VM, a cost that follows the hypervisor's
	// load and not the program (README.md, "Noise").
	runtime.GC()
	defer keepAwake()()
	t0 := time.Now()
	reg, err := region.Attach(dev)
	if err != nil {
		return rt, fmt.Errorf("re-attach region: %w", err)
	}
	rt.attach = time.Since(t0)
	lm := locks.NewManager(reg)
	run := core.New(core.DefaultConfig())
	if err := run.Attach(reg, lm); err != nil {
		return rt, fmt.Errorf("attach runtime: %w", err)
	}
	mc, err := server.AttachMcStore(&memcache.Env{Reg: reg, LM: lm})
	if err != nil {
		return rt, fmt.Errorf("attach store: %w", err)
	}
	rr := persist.NewResumeRegistry()
	mc.Register(rr)
	t1 := time.Now()
	st, err := run.Recover(rr)
	if err != nil {
		return rt, fmt.Errorf("recover: %w", err)
	}
	rt.recover = time.Since(t1)
	rt.total = time.Since(t0)
	rt.resumed = st.Resumed
	n.reg, n.lm = reg, lm
	n.wrap(run, mc)
	return rt, nil
}

// keepAwake keeps every processor out of idle until the returned function
// is called. A restart is two milliseconds of work, part of it on
// goroutines Recover starts; waking a halted vCPU for each of them costs
// 50-500 us on the reference hypervisor, which made core.recover_us range
// from 0.27 to 2.4 ms between runs. The yielding loops give way to any
// runnable goroutine at once, so they add no work to the restart.
func keepAwake() (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				runtime.Gosched()
			}
		}()
	}
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// items is the store's live item count.
func (n *node) items() uint64 {
	var sum uint64
	for i := 0; i < n.store.NumShards(); i++ {
		sum += n.store.Count(i)
	}
	return sum
}

// serve stands a server up over the node and connects every client to
// it through a MemPipe; the server end is decorated in the traced run.
func (n *node) serve(wl *workload, repl *replica.Shipper, cs []*client) (*server.Server, error) {
	srv, err := server.New(n.rt, n.store, server.Config{
		Proto: server.ProtoMemcache, MaxItems: wl.maxItems, Repl: repl}, nil)
	if err != nil {
		return nil, fmt.Errorf("create server: %w", err)
	}
	for _, c := range cs {
		cl, sv := loadgen.MemPipe(pipeBytes)
		if n.tr != nil {
			sv = n.tr.wrapConn(sv)
		}
		if err := srv.ServeConn(sv); err != nil {
			srv.Close()
			return nil, fmt.Errorf("serve connection: %w", err)
		}
		c.attach(cl)
	}
	return srv, nil
}

// pair is a primary's shipper joined to a running standby.
type pair struct {
	sh   *replica.Shipper
	sb   *replica.Standby
	done chan error // the standby's Run result
}

// joinStandby starts a hot standby over sbNode and attaches it to a new
// shipper through a MemPipe.
func joinStandby(sbNode *node, tr *tracer) (*pair, error) {
	sh, err := replica.NewShipper(replica.ShipperConfig{Shards: shards})
	if err != nil {
		return nil, err
	}
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Store: sbNode.store, RT: sbNode.rt, Reg: sbNode.reg,
		ReconnectBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	p := &pair{sh: sh, sb: sb, done: make(chan error, 1)}
	dial := func() (net.Conn, error) {
		if sh.Killed() {
			return nil, errors.New("primary down")
		}
		c, s := loadgen.MemPipe(pipeBytes)
		if tr != nil {
			s = tr.wrapShip(s)
		}
		go func() {
			if err := sh.AttachConn(s); err != nil {
				s.Close()
			}
		}()
		return c, nil
	}
	go func() { p.done <- sb.Run(dial) }()
	deadline := time.Now().Add(10 * time.Second)
	for !sh.Attached() {
		if time.Now().After(deadline) {
			return nil, errors.New("standby never attached")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return p, nil
}

// verify reads back local keys of every client from the node's store and
// requires each to be explainable by that client's history: the state
// after its last acknowledged mutation, or after any of the unacknowledged
// ones still in flight behind it (loadgen.KeyHist.Explainable). all
// checks every key; otherwise only the keys touched since the last call.
// With adopt it then takes the observed state as the model's, so the next
// phase starts from what the store really holds.
func (n *node) verify(wl *workload, cs []*client, all, adopt bool) (checked int, err error) {
	th, terr := n.rt.NewThread()
	if terr != nil {
		return 0, terr
	}
	var hist loadgen.KeyHist
	for _, c := range cs {
		check := func(i uint32) error {
			key := c.keyID(i)
			hist.Ops = hist.Ops[:0]
			hist.Acked = 1
			hist.Ops = append(hist.Ops, keyOp(key, c.ack[i]))
			for h := c.head.Load(); h < c.tail.Load(); h++ {
				p := &c.ring[h&(pendRing-1)]
				if p.key == key && (p.kind == kSet || p.kind == kDel) {
					hist.Ops = append(hist.Ops, keyOp(key, p.exp))
				}
			}
			k0, k1 := keyWords(key)
			val, present := n.store.Get(th, n.store.ShardOf(k0, k1), k0, k1)
			// With an eviction watermark an absent key may simply have
			// been evicted; only a present key can be held to the history.
			if !hist.Explainable(present, val) && (present || wl.maxItems == 0) {
				return fmt.Errorf("key %d (present=%v value=%d) is not explained by its history: acked state %d, %d mutations in flight",
					key, present, val, c.ack[i], len(hist.Ops)-1)
			}
			if adopt {
				st := uint32(0)
				if present {
					st = uint32(val)
				}
				c.exp[i], c.ack[i] = st, st
			}
			checked++
			return nil
		}
		if all {
			for i := uint32(0); i < c.n; i++ {
				if err := check(i); err != nil {
					return checked, err
				}
			}
		} else {
			for _, i := range c.touched {
				if err := check(i); err != nil {
					return checked, err
				}
			}
		}
		if adopt {
			c.touched = c.touched[:0]
		}
	}
	return checked, nil
}

// keyOp is the mutation that leaves key in model state st.
func keyOp(key, st uint32) loadgen.KeyOp {
	if st == 0 {
		return loadgen.KeyOp{Del: true}
	}
	return loadgen.KeyOp{Val: valueOf(key, st)}
}
