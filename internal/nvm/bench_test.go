package nvm

import (
	"sync/atomic"
	"testing"
)

// Device hot-path microbenchmarks, smoked by CI (-bench=Device
// -benchtime=100x); they exercise only the public API so the same file
// measures any cache implementation.

const benchDevBytes = 1 << 22

// BenchmarkDeviceStore64 is the single-threaded store path.
func BenchmarkDeviceStore64(b *testing.B) {
	d := New(Config{Size: benchDevBytes})
	mask := uint64(benchDevBytes/WordSize - 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Store64(uint64(i)&mask*WordSize, uint64(i))
	}
}

// BenchmarkDeviceLoad64 is the single-threaded load path over a warmed
// (partly cached, partly uncached) address range.
func BenchmarkDeviceLoad64(b *testing.B) {
	d := New(Config{Size: benchDevBytes})
	for a := uint64(0); a < benchDevBytes/2; a += 128 {
		d.Store64(a, a)
	}
	mask := uint64(benchDevBytes/WordSize - 1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += d.Load64(uint64(i) & mask * WordSize)
	}
	benchSink.Store(sink)
}

// BenchmarkDeviceStore64Parallel stores from GOMAXPROCS goroutines into
// disjoint per-goroutine address windows — the uncontended sharding case
// the simulator must not serialize.
func BenchmarkDeviceStore64Parallel(b *testing.B) {
	d := New(Config{Size: benchDevBytes})
	var next atomic.Uint64
	const window = uint64(1 << 14) // bytes per goroutine
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := (next.Add(1) - 1) * window % (benchDevBytes / 2)
		i := uint64(0)
		for pb.Next() {
			d.Store64(base+(i&(window/WordSize-1))*WordSize, i)
			i++
		}
	})
}

// BenchmarkDeviceLoad64Parallel is the parallel read path.
func BenchmarkDeviceLoad64Parallel(b *testing.B) {
	d := New(Config{Size: benchDevBytes})
	for a := uint64(0); a < benchDevBytes; a += 64 {
		d.Store64(a, a)
	}
	var next atomic.Uint64
	const window = uint64(1 << 14)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := (next.Add(1) - 1) * window % (benchDevBytes / 2)
		i := uint64(0)
		var sink uint64
		for pb.Next() {
			sink += d.Load64(base + (i&(window/WordSize-1))*WordSize)
			i++
		}
		benchSink.Store(sink)
	})
}

// BenchmarkDeviceMixedParallel16 is the acceptance workload: 16
// goroutines, 2 loads per store, disjoint windows.
func BenchmarkDeviceMixedParallel16(b *testing.B) {
	d := New(Config{Size: benchDevBytes})
	var next atomic.Uint64
	const window = uint64(1 << 14)
	b.SetParallelism(16) // 16 goroutines per GOMAXPROCS
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := (next.Add(1) - 1) * window % (benchDevBytes / 2)
		i := uint64(0)
		var sink uint64
		for pb.Next() {
			a := base + (i&(window/WordSize-1))*WordSize
			d.Store64(a, i)
			sink += d.Load64(a)
			sink += d.Load64(a ^ 512)
			i++
		}
		benchSink.Store(sink)
	})
}

// BenchmarkDeviceCLWBFence is the persist-ordering path with zeroed
// latency model, isolating simulator bookkeeping.
func BenchmarkDeviceCLWBFence(b *testing.B) {
	d := New(Config{Size: benchDevBytes, FlushNS: 0, FenceNS: 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Store64(0, uint64(i))
		d.CLWB(0)
		d.Fence()
	}
}

// BenchmarkDeviceFASEPattern models one small FASE per iteration the way
// the iDO runtime drives the device: a few stores to two lines, a
// write-back of each dirty line, and two fences (§III-A boundary
// protocol), with the latency model zeroed so the measurement is
// simulator overhead, not the modeled hardware.
func BenchmarkDeviceFASEPattern(b *testing.B) {
	d := New(Config{Size: benchDevBytes})
	d.SetExtraLatency(0)
	mask := uint64(benchDevBytes/2 - 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := (uint64(i) * 192) & mask &^ (LineSize - 1)
		d.Store64(base, uint64(i))
		d.Store64(base+8, uint64(i)+1)
		d.Store64(base+LineSize, uint64(i)+2)
		d.CLWB(base)
		d.CLWB(base + LineSize)
		d.Fence()
		d.Store64(base+16, uint64(i)+3)
		d.CLWB(base + 16)
		d.Fence()
	}
}

// BenchmarkDeviceFASEPatternParallel16 runs the FASE pattern from 16
// goroutines over disjoint windows.
func BenchmarkDeviceFASEPatternParallel16(b *testing.B) {
	d := New(Config{Size: benchDevBytes})
	var next atomic.Uint64
	const window = uint64(1 << 14)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := (next.Add(1) - 1) * window % (benchDevBytes / 2)
		i := uint64(0)
		for pb.Next() {
			a := base + (i*192)&(window-1)&^(LineSize-1)
			d.Store64(a, i)
			d.Store64(a+8, i+1)
			d.CLWB(a)
			d.Fence()
			i++
		}
	})
}

var benchSink atomic.Uint64
