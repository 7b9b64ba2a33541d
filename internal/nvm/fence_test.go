package nvm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/obs"
)

// A fence is charged per thread: its crash tick, its FenceNS spin on the
// calling goroutine and its count. Nothing is shared between two
// threads' fences but the stat stripe, so they overlap like two cores'
// sfences.

const manyTicks = 1 << 40

// waitTicks blocks until n device events have been counted against the
// huge budget armed by the caller. A fence ticks before it spins, so
// once a goroutine's fence tick is counted it is inside its spin.
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

// commit is one store → write-back → fence on addr: three device events.
func commit(d *Device, addr, v uint64) {
	d.Store64(addr, v)
	d.CLWB(addr)
	d.Fence()
}

// TestFenceCountsEveryCall: every fence is counted and persists the
// write-backs before it.
func TestFenceCountsEveryCall(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	d.Store64(0, 1)
	d.Store64(64, 2)
	d.FlushLines([]uint64{0, 64})
	d.Fence()
	d.Fence()
	if st := d.Stats(); st.Flushes != 2 || st.Fences != 2 {
		t.Fatalf("flushes=%d fences=%d, want 2/2", st.Flushes, st.Fences)
	}
	for addr, want := range map[uint64]uint64{0: 1, 64: 2} {
		if got := d.persistedWord(addr); got != want {
			t.Fatalf("addr %#x: persistence domain has %d, want %d", addr, got, want)
		}
	}
}

// TestFencesOverlap: a second goroutine's fence, begun while the first
// is inside its spin, returns well within one spin of the first. It could
// not if it had to wait for the first spin to end before starting its
// own: then the second returns a whole spin after the first. The bar is
// half of a lone fence timed just before, on the same host under the
// same load, since a loaded host stretches every spin and can deschedule
// the second goroutine for a while. A trial that misses the bar is
// repeated, up to five times: a serialised fence misses it in every
// trial. This holds on one CPU too, where the two spins interleave and
// end together.
func TestFencesOverlap(t *testing.T) {
	const fenceNS = 100_000_000 // 100 ms
	d := New(Config{Size: 1 << 12, FenceNS: fenceNS})
	d.ArmLocalCrash(manyTicks)
	defer d.ArmLocalCrash(-1)

	ends := make(chan time.Time, 2)
	fence := func() {
		d.Fence()
		ends <- time.Now()
	}
	spin(1) // calibrate the spin before timing a lone fence
	var trials []string
	for i := int64(0); i < 5; i++ {
		t0 := time.Now()
		d.Fence()
		solo := time.Since(t0)
		go fence()
		waitTicks(t, d, 3*i+2) // the first fence of the pair is in its spin
		go fence()
		first, second := <-ends, <-ends
		gap := second.Sub(first)
		if gap < solo/2 {
			if st := d.Stats(); st.Fences != uint64(3*i+3) {
				t.Fatalf("fences=%d, want %d", st.Fences, 3*i+3)
			}
			return
		}
		trials = append(trials, fmt.Sprintf("%v after a lone fence of %v", gap, solo))
	}
	t.Fatalf("in every trial the second fence returned at least half a lone fence after the first (FenceNS %v): %s; the two spins did not overlap",
		fenceNS*time.Nanosecond, strings.Join(trials, ", "))
}

// TestFenceHammer is the CI race-mode hammer: 16 goroutines commit to
// private lines, and every fence is counted and traced exactly once.
func TestFenceHammer(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 200
	)
	tr := obs.New(obs.Config{})
	d := New(Config{Size: 1 << 20, FenceNS: 400, Tracer: tr})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := uint64(g*rounds + r)
				commit(d, i*64, i+1)
			}
		}(g)
	}
	wg.Wait()

	const commits = goroutines * rounds
	if st := d.Stats(); st.Fences != commits || st.Flushes != commits || st.Stores != commits {
		t.Fatalf("fences=%d flushes=%d stores=%d, want %d each", st.Fences, st.Flushes, st.Stores, commits)
	}
	if n := tr.Count(obs.KFence); n != commits {
		t.Fatalf("trace has %d fences, want %d", n, commits)
	}
	for i := uint64(0); i < commits; i++ {
		if got := d.persistedWord(i * 64); got != i+1 {
			t.Fatalf("addr %#x: persistence domain has %d, want %d", i*64, got, i+1)
		}
	}
}

// TestFenceCrashMidSpin: a budget that fires on one goroutine's fence
// kills that goroutine and no other. Four goroutines already inside
// their spins finish them and return; the device then settles and
// commits normally.
func TestFenceCrashMidSpin(t *testing.T) {
	const spinners = 4
	d := New(Config{Size: 1 << 20, FenceNS: 50_000_000})
	d.Store64(4096, 7) // never written back
	d.ArmLocalCrash(manyTicks)
	defer d.ArmLocalCrash(-1)

	results := make(chan bool, spinners+1)
	for g := uint64(0); g < spinners; g++ {
		go func() { results <- survives(func() { commit(d, g*64, g+1) }) }()
	}
	waitTicks(t, d, 3*spinners) // every spinner's fence has ticked
	d.ArmLocalCrash(2)          // the victim's store and write-back, then its fence fires
	go func() { results <- survives(func() { commit(d, 1024, 99) }) }()

	returned, died := 0, 0
	for i := 0; i < spinners+1; i++ {
		select {
		case ok := <-results:
			if ok {
				returned++
			} else {
				died++
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("goroutine %d of %d never finished", i+1, spinners+1)
		}
	}
	if returned != spinners || died != 1 {
		t.Fatalf("%d returned, %d died; want %d spinners returned and the victim dead", returned, died, spinners)
	}
	if !d.LocalCrashFired() {
		t.Fatal("the victim's budget never fired")
	}
	if st := d.Stats(); st.Fences != spinners {
		t.Fatalf("fences=%d, want %d: the victim's fence died at its tick", st.Fences, spinners)
	}

	d.ArmLocalCrash(-1)
	d.Crash(CrashDiscard, nil)
	for g := uint64(0); g < spinners; g++ {
		if got := d.Load64(g * 64); got != g+1 {
			t.Fatalf("spinner %d's fenced word reads %d", g, got)
		}
	}
	if got := d.Load64(4096); got != 0 {
		t.Fatalf("unflushed word survived discard: %d", got)
	}
	commit(d, 128, 9)
	if got := d.persistedWord(128); got != 9 {
		t.Fatalf("commit after the crash: persistence domain has %d", got)
	}
}

// BenchmarkDeviceFenceParallel is a store + CLWB + fence loop at the
// §V fence cost on 1, 2 and 4 goroutines, each on a private line. With
// fences charged per thread, ops/s grows with goroutines up to the
// host's cores.
func BenchmarkDeviceFenceParallel(b *testing.B) {
	for _, g := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			d := New(Config{Size: benchDevBytes, FlushNS: 0, FenceNS: 400})
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(addr uint64) {
					defer wg.Done()
					for i := uint64(0); next.Add(1) <= int64(b.N); i++ {
						commit(d, addr, i)
					}
				}(uint64(w) * LineSize)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
