package nvalloc

import (
	"fmt"
	"testing"

	"github.com/ido-nvm/ido/internal/nvm"
)

// allocAPI is what the benchmarks need from either allocator; the slab
// Allocator and the seed's first-fit MutexAllocator both satisfy it, so
// every benchmark runs as an A/B pair over the same workload.
type allocAPI interface {
	Alloc(int) (uint64, error)
	Free(uint64)
}

const benchArena = 1 << 26

func benchPair(b *testing.B, run func(b *testing.B, mk func(d *nvm.Device) allocAPI)) {
	b.Run("slab", func(b *testing.B) {
		run(b, func(d *nvm.Device) allocAPI { return New(d, 0, benchArena) })
	})
	b.Run("mutex", func(b *testing.B) {
		run(b, func(d *nvm.Device) allocAPI { return NewMutex(d, 0, benchArena) })
	})
}

// BenchmarkAllocSingle is the uncontended steady state: one goroutine
// alternating Alloc/Free of one size. For the slab allocator this is
// the free-list fast path — free pushes the block on its class's list,
// the next alloc pops it back — and it must not regress against the
// seed's first-fit path.
func BenchmarkAllocSingle(b *testing.B) {
	benchPair(b, func(b *testing.B, mk func(d *nvm.Device) allocAPI) {
		d := nvm.New(nvm.Config{Size: benchArena})
		a := mk(d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := a.Alloc(64)
			if err != nil {
				b.Fatal(err)
			}
			a.Free(p)
		}
	})
}

// BenchmarkAllocSizes cycles through every small size class plus a
// bounded live set, exercising carves and free-list reuse, still single
// threaded.
func BenchmarkAllocSizes(b *testing.B) {
	benchPair(b, func(b *testing.B, mk func(d *nvm.Device) allocAPI) {
		d := nvm.New(nvm.Config{Size: benchArena})
		a := mk(d)
		sizes := [...]int{16, 24, 48, 64, 96, 128, 192, 256}
		var ring [64]uint64 // user addresses start at headerSize, so 0 = empty
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & 63
			if ring[j] != 0 {
				a.Free(ring[j])
			}
			p, err := a.Alloc(sizes[i&7])
			if err != nil {
				b.Fatal(err)
			}
			ring[j] = p
		}
	})
}

// BenchmarkAllocMixed16 is the contention stress: 16 goroutines of
// mixed Alloc/Free over sizes 16..256 with bounded per-goroutine live
// rings, all on the one lock. No workload puts more than a handful of
// callers on an allocator (kv allocates under its store's lock);
// EXPERIMENTS.md ("One allocator lock") has the numbers.
func BenchmarkAllocMixed16(b *testing.B) {
	benchPair(b, func(b *testing.B, mk func(d *nvm.Device) allocAPI) {
		d := nvm.New(nvm.Config{Size: benchArena})
		a := mk(d)
		b.SetParallelism(16)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			sizes := [...]int{16, 32, 48, 64, 96, 128, 192, 256}
			ring := make([]uint64, 0, 32)
			i := 0
			for pb.Next() {
				if len(ring) == cap(ring) {
					for _, p := range ring {
						a.Free(p)
					}
					ring = ring[:0]
				}
				p, err := a.Alloc(sizes[i&7])
				if err != nil {
					b.Error(err)
					return
				}
				ring = append(ring, p)
				i++
			}
			for _, p := range ring {
				a.Free(p)
			}
		})
	})
}

// BenchmarkAttach measures the recovery-path hop over a heap populated
// with live and free blocks: one header per segment, so its time should
// follow the heap's bytes in use and not its block count.
func BenchmarkAttach(b *testing.B) {
	for _, blocks := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			d := nvm.New(nvm.Config{Size: benchArena})
			a := New(d, 0, benchArena)
			live := make([]uint64, 0, blocks)
			for i := 0; i < blocks; i++ {
				p, err := a.Alloc(16 + (i%8)*24)
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, p)
			}
			for i := 0; i < len(live); i += 2 {
				a.Free(live[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Attach(d, 0, benchArena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
