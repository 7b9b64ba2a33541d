package nvm

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/obs"
)

// Drain-sharing conformance. The invariant every test here circles: no
// fence returns before a drain that started after its write-backs has
// finished. The simulator writes a line back at CLWB time and a drain is
// only a delay, so the invariant is checked on the protocol itself: a
// committer reads started after its write-backs and, when its fence
// returns, done must have passed that reading.

const manyTicks = 1 << 40

func gcDevice(cfg GroupCommitConfig, tr *obs.Tracer) *Device {
	return New(Config{Size: 1 << 20, GroupCommit: cfg, Tracer: tr})
}

// assertPersisted checks the persistence domain directly, not through
// the cache.
func (d *Device) assertPersisted(t *testing.T, addr, want uint64) {
	t.Helper()
	if got := d.persistedWord(addr); got != want {
		t.Fatalf("addr %#x: persistence domain has %d, want %d", addr, got, want)
	}
}

// waitTicks blocks until n device events have been counted against the
// huge local budget armed by the caller. Fence snapshots started before
// it ticks, so once a committer's fence tick is counted its snapshot is
// fixed — which is what lets a test place arrivals exactly.
func waitTicks(t *testing.T, d *Device, n int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for manyTicks-d.LocalCrashBudgetRemaining() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d device events arrived", manyTicks-d.LocalCrashBudgetRemaining(), n)
		}
		runtime.Gosched()
	}
}

// survives runs fn and reports whether it returned (true) or died with
// CrashSignal (false).
func survives(fn func()) (returned bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(CrashSignal); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return true
}

// persist is a commit's epilogue: write back the lines, fence.
func persist(d *Device, lines ...uint64) {
	d.FlushLines(lines)
	d.Fence()
}

// commitAsync runs store → persist on one private line per
// goroutine (3 device events each) and reports each committer's
// survives outcome.
func commitAsync(d *Device, n int) (results chan bool) {
	results = make(chan bool, n)
	for g := 0; g < n; g++ {
		go func(g int) {
			results <- survives(func() {
				addr := uint64(g) * 64
				d.Store64(addr, uint64(g)+11)
				persist(d, addr)
			})
		}(g)
	}
	return results
}

// collect gathers n committer outcomes, failing on a hang.
func collect(t *testing.T, results chan bool, n int) (returned, died int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case ok := <-results:
			if ok {
				returned++
			} else {
				died++
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("committer %d of %d never finished (token leaked or a waiter slept through a crash?)", i+1, n)
		}
	}
	return returned, died
}

// TestGroupCommitDisabledIsDirect: with sharing off every fence drains
// itself.
func TestGroupCommitDisabledIsDirect(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	d.Store64(0, 1)
	d.Store64(64, 2)
	persist(d, 0, 64)
	d.Fence()
	st := d.Stats()
	if st.Flushes != 2 || st.Fences != 2 {
		t.Fatalf("flushes=%d fences=%d, want 2/2", st.Flushes, st.Fences)
	}
	if gs := d.GroupCommitStats(); gs != (GCStats{}) {
		t.Fatalf("disabled device reports sharing stats %+v", gs)
	}
	d.assertPersisted(t, 0, 1)
	d.assertPersisted(t, 64, 2)
}

// soloScript is a fixed single-threaded history touching every fence
// entry point.
func soloScript(d *Device) {
	for i := uint64(0); i < 6; i++ {
		a := i * 64
		d.Store64(a, i+1)
		d.Store64(a+8, i+101)
		switch i % 3 {
		case 0:
			persist(d, a)
		case 1:
			d.CLWB(a)
			d.Fence()
		case 2:
			d.StoreNT(a+16, i+201)
			d.FlushLines([]uint64{a})
			d.Fence()
		}
	}
}

// TestGroupCommitSoloFallsThrough: a lone committer has nobody to share
// with, so a device with sharing enabled must be indistinguishable from
// one without: the same event counts, trace, fence count and number of
// crash ticks, and — crashing at every tick in turn — the same
// persistent image. This is the chaos argument: no new state, no new
// crash point.
func TestGroupCommitSoloFallsThrough(t *testing.T) {
	run := func(enabled bool, budget int64) (*Device, *obs.Tracer, int64) {
		tr := obs.New(obs.Config{})
		d := New(Config{Size: 6 * LineSize, GroupCommit: GroupCommitConfig{Enabled: enabled}, Tracer: tr})
		d.ArmLocalCrash(budget)
		survives(func() { soloScript(d) })
		return d, tr, budget - d.LocalCrashBudgetRemaining()
	}

	off, trOff, ticksOff := run(false, manyTicks)
	on, trOn, ticksOn := run(true, manyTicks)
	if ticksOff != ticksOn {
		t.Fatalf("crash ticks: %d direct, %d shared", ticksOff, ticksOn)
	}
	if off.Stats() != on.Stats() {
		t.Fatalf("stats differ:\n direct %+v\n shared %+v", off.Stats(), on.Stats())
	}
	if off.Stats().Fences != on.Stats().Fences {
		t.Fatalf("fences: %d direct, %d shared", off.Stats().Fences, on.Stats().Fences)
	}
	for k := obs.Kind(0); int(k) < obs.NumKinds; k++ {
		if trOff.Count(k) != trOn.Count(k) {
			t.Fatalf("%v events: %d direct, %d shared", k, trOff.Count(k), trOn.Count(k))
		}
	}
	if gs, want := on.GroupCommitStats(), on.Stats().Fences; gs.Epochs != want || gs.Solo != want ||
		gs.Combined != 0 || gs.ServedFASEs != want || gs.DwellRounds != 0 {
		t.Fatalf("lone committer's sharing stats %+v, want %d solo drains", gs, want)
	}

	for k := int64(0); k < ticksOff; k++ {
		a, _, _ := run(false, k)
		b, _, _ := run(true, k)
		if !a.LocalCrashFired() || !b.LocalCrashFired() {
			t.Fatalf("budget %d did not fire (direct %v, shared %v)", k, a.LocalCrashFired(), b.LocalCrashFired())
		}
		a.Crash(CrashDiscard, nil)
		b.Crash(CrashDiscard, nil)
		if !reflect.DeepEqual(a.SnapshotPersistent(), b.SnapshotPersistent()) {
			t.Fatalf("crash at tick %d: persistent images differ", k)
		}
		if a.Stats().Fences != b.Stats().Fences {
			t.Fatalf("crash at tick %d: fences %d direct, %d shared", k, a.Stats().Fences, b.Stats().Fences)
		}
	}
}

// TestGroupCommitMergesConcurrent drives the two-committer schedule
// through the token: both arrive while drain 1 is in flight, so drain 1
// — begun before their write-backs — must cover neither; when it ends
// one of them performs drain 2 and the other returns on it. Two
// commits, one device fence.
func TestGroupCommitMergesConcurrent(t *testing.T) {
	tr := obs.New(obs.Config{})
	d := gcDevice(GroupCommitConfig{Enabled: true}, tr)
	d.ArmLocalCrash(manyTicks)
	f := &d.fence

	f.tok.Store(1) // the test stands in for the thread performing drain 1
	f.started.Store(1)
	results := commitAsync(d, 2)
	waitTicks(t, d, 6) // both have ticked their fence: snapshots are 1
	if len(results) != 0 {
		t.Fatal("a commit returned while the only drain since its write-backs was still in flight")
	}
	f.done.Store(1)
	f.tok.Store(0)
	if returned, _ := collect(t, results, 2); returned != 2 {
		t.Fatalf("%d of 2 commits returned", returned)
	}

	d.assertPersisted(t, 0, 11)
	d.assertPersisted(t, 64, 12)
	if st := d.Stats(); st.Fences != 1 || st.Flushes != 2 {
		t.Fatalf("fences=%d flushes=%d, want 1/2", st.Fences, st.Flushes)
	}
	if f.started.Load() != 2 || f.done.Load() != 2 || f.tok.Load() != 0 {
		t.Fatalf("started=%d done=%d tok=%d, want 2/2/0", f.started.Load(), f.done.Load(), f.tok.Load())
	}
	if gs := d.GroupCommitStats(); gs.Combined != 1 || gs.ServedFASEs != 3 {
		t.Fatalf("sharing stats %+v, want 1 combined of 3 fences (the stand-in's included)", gs)
	}
	if n := tr.Count(obs.KFenceCombined); n != 1 {
		t.Fatalf("fence-combined events=%d, want 1", n)
	}
}

// TestGroupCommitCoversEarlierArrivals is the three-committer schedule:
// all three finish their write-backs while the token is held but before
// the holder's drain begins (the window between a real holder's CAS and
// its started bump). That drain begins after every snapshot, so it
// covers all three: three commits, no further drain.
func TestGroupCommitCoversEarlierArrivals(t *testing.T) {
	d := gcDevice(GroupCommitConfig{Enabled: true}, nil)
	d.ArmLocalCrash(manyTicks)
	f := &d.fence

	f.tok.Store(1)
	results := commitAsync(d, 3)
	waitTicks(t, d, 9) // snapshots are 0
	f.started.Store(1) // the drain begins
	if len(results) != 0 {
		t.Fatal("a commit returned before the covering drain finished")
	}
	f.done.Store(1)
	f.tok.Store(0)
	if returned, _ := collect(t, results, 3); returned != 3 {
		t.Fatalf("%d of 3 commits returned", returned)
	}
	if st := d.Stats(); st.Fences != 0 || st.Flushes != 3 {
		t.Fatalf("fences=%d flushes=%d, want 0/3 (the stand-in's drain covered everyone)", st.Fences, st.Flushes)
	}
	if gs := d.GroupCommitStats(); gs.Combined != 3 || gs.Epochs != 1 {
		t.Fatalf("sharing stats %+v, want 3 combined on 1 drain", gs)
	}
}

// TestGroupCommitHammer is the CI race-mode hammer: 16 goroutines
// commit through shared drains, each checking the invariant on every
// commit, and the accounting must add up exactly.
func TestGroupCommitHammer(t *testing.T) {
	tr := obs.New(obs.Config{})
	d := New(Config{Size: 1 << 20, FenceNS: 400, Tracer: tr,
		GroupCommit: GroupCommitConfig{Enabled: true}})
	const (
		goroutines = 16
		rounds     = 200
	)
	f := &d.fence
	var uncovered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				addr := uint64(g*rounds+r) * 64
				d.Store64(addr, uint64(g*rounds+r)+1)
				d.FlushLines([]uint64{addr})
				begun := f.started.Load() // drains begun before this commit's write-backs finished
				d.Fence()
				if f.done.Load() <= begun {
					uncovered.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := uncovered.Load(); n != 0 {
		t.Fatalf("%d commits returned with no drain begun after their write-backs complete", n)
	}
	for i := 0; i < goroutines*rounds; i++ {
		d.assertPersisted(t, uint64(i)*64, uint64(i)+1)
	}
	const commits = goroutines * rounds
	gs := d.GroupCommitStats()
	if gs.Epochs+gs.Combined != commits || gs.ServedFASEs != commits || gs.Solo > gs.Epochs {
		t.Fatalf("sharing stats %+v do not add up to %d commits", gs, commits)
	}
	if drains, covered := tr.Count(obs.KFence), tr.Count(obs.KFenceCombined); drains != gs.Epochs || covered != gs.Combined {
		t.Fatalf("trace has %d fences + %d combined, stats %+v", drains, covered, gs)
	}
	if f.tok.Load() != 0 || f.started.Load() != f.done.Load() {
		t.Fatalf("idle device: tok=%d started=%d done=%d", f.tok.Load(), f.started.Load(), f.done.Load())
	}
	t.Logf("commits=%d drains=%d (%.2f commits/drain, %d solo)", commits, gs.Epochs,
		float64(commits)/float64(gs.Epochs), gs.Solo)
}

// TestGroupCommitLeaderCrashWakesParked: when an injected crash fires
// while a drain is in flight, every committer waiting on it must die
// with the crash rather than wait for a drain that may never finish.
// ("Leader" is whoever holds the fence token — here the test, which
// never releases it — and the waiters spin rather than park.) Three
// committers issue nine events; the sweep fires the crash on the sixth
// to eighth, so it lands on a flush or a fence tick with some
// committers already past theirs and spinning on the token.
func TestGroupCommitLeaderCrashWakesParked(t *testing.T) {
	for _, budget := range []int64{2, 3, 4} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			d := gcDevice(GroupCommitConfig{Enabled: true}, nil)
			d.fence.tok.Store(1)
			d.fence.started.Store(1)
			d.ArmLocalCrash(3 + budget)
			defer d.ArmLocalCrash(-1)
			if returned, died := collect(t, commitAsync(d, 3), 3); returned != 0 || died != 3 {
				t.Fatalf("%d committers returned, %d died; the token was never released", returned, died)
			}
			if !d.LocalCrashFired() {
				t.Fatal("crash budget never fired: the sweep no longer covers the commit path")
			}
			d.ArmLocalCrash(-1)
			d.Crash(CrashDiscard, nil)
			if d.fence.tok.Load() != 0 {
				t.Fatal("Crash left the fence token held")
			}
			d.Store64(512, 9)
			persist(d, 512)
			d.assertPersisted(t, 512, 9)
		})
	}
}

// TestGroupCommitCrashMidBatchResets: a crash fired during a real drain
// kills the committers waiting on it (the drainer itself only spins, so
// it finishes and returns); Crash then settles the device — the fenced
// prefix survives, unflushed words obey the crash mode, the token is
// free — and the reopened device commits normally.
func TestGroupCommitCrashMidBatchResets(t *testing.T) {
	d := New(Config{Size: 1 << 20, FenceNS: 100_000_000,
		GroupCommit: GroupCommitConfig{Enabled: true}})
	f := &d.fence
	d.Store64(1024, 42)
	d.CLWB(1024)
	d.Store64(2048, 7) // never flushed
	d.ArmLocalCrash(manyTicks)
	defer d.ArmLocalCrash(-1)

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		d.Fence() // a 100 ms drain
	}()
	for f.started.Load() == 0 {
		runtime.Gosched()
	}
	results := commitAsync(d, 2)
	waitTicks(t, d, 1+6) // the drainer's tick, then both waiters' fence ticks
	d.TriggerLocalCrash()
	returned, died := collect(t, results, 2)
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("the drainer never finished")
	}
	if died == 0 {
		t.Fatalf("no waiter died with the crash (%d returned)", returned)
	}
	d.ArmLocalCrash(-1)

	d.Crash(CrashDiscard, nil)
	if f.tok.Load() != 0 {
		t.Fatal("Crash left the fence token held")
	}
	if got := d.Load64(1024); got != 42 {
		t.Fatalf("fenced word lost: %d", got)
	}
	if got := d.Load64(2048); got != 0 {
		t.Fatalf("unflushed word survived discard: %d", got)
	}
	d.Store64(128, 9)
	persist(d, 128)
	d.assertPersisted(t, 128, 9)
}

// TestGroupCommitWindowDwell: WindowNS is accepted and ignored — a
// configuration written for the retired combiner still commits
// correctly and nothing dwells.
func TestGroupCommitWindowDwell(t *testing.T) {
	d := gcDevice(GroupCommitConfig{Enabled: true, WindowNS: 50_000}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				addr := uint64(g*50+r) * 64
				d.Store64(addr, uint64(g*50+r)+1)
				persist(d, addr)
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 200; i++ {
		d.assertPersisted(t, uint64(i)*64, uint64(i)+1)
	}
	if gs := d.GroupCommitStats(); gs.DwellRounds != 0 || gs.ServedFASEs != 200 {
		t.Fatalf("sharing stats %+v, want 200 commits and no dwell", gs)
	}
}

// TestFenceSerializes: without sharing every fence drains, queueing on
// the device-global token. We can't assert wall clock portably; instead
// assert every fence was counted and the token round-trips.
func TestFenceSerializes(t *testing.T) {
	d := New(Config{Size: 1 << 12, FenceNS: 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.Fence()
			}
		}()
	}
	wg.Wait()
	if st := d.Stats(); st.Fences != 800 {
		t.Fatalf("fences=%d, want 800", st.Fences)
	}
	if d.fence.tok.Load() != 0 || d.fence.done.Load() != 800 {
		t.Fatalf("tok=%d done=%d after 800 exclusive fences", d.fence.tok.Load(), d.fence.done.Load())
	}
}
