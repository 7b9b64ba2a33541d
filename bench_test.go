// Package-level benchmarks: one testing.B benchmark per paper table and
// figure, exercising the same code paths as the idobench drivers but
// under `go test -bench`. Throughput figures report ns/op per runtime;
// statistics figures report their headline numbers via b.ReportMetric.
// The full sweeps (thread counts, key ranges, kill times) live in
// cmd/idobench; see DESIGN.md's experiment index.
package ido_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/baselines/atlas"
	"github.com/ido-nvm/ido/internal/baselines/justdo"
	"github.com/ido-nvm/ido/internal/baselines/mnemosyne"
	"github.com/ido-nvm/ido/internal/baselines/nvml"
	"github.com/ido-nvm/ido/internal/baselines/nvthreads"
	"github.com/ido-nvm/ido/internal/baselines/origin"
	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/ds"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/kv/redis"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/vm"
	"github.com/ido-nvm/ido/internal/workload"
)

// benchConfig is the same cost model the idobench harness uses.
func benchConfig(size int) nvm.Config {
	return nvm.Config{Size: size, FlushNS: 50, FenceNS: 400, NTStoreNS: 150}
}

func mkRuntime(name string) persist.Runtime {
	switch name {
	case "origin":
		return origin.New()
	case "ido":
		return core.New(core.DefaultConfig())
	case "justdo":
		return justdo.New()
	case "atlas":
		return atlas.New(atlas.Config{})
	case "mnemosyne":
		return mnemosyne.New()
	case "nvthreads":
		return nvthreads.New()
	case "nvml":
		return nvml.New()
	}
	panic(name)
}

func newBenchWorld(b *testing.B, rtName string, size int) (*region.Region, *locks.Manager, persist.Runtime) {
	b.Helper()
	reg := region.Create(size, benchConfig(size))
	lm := locks.NewManager(reg)
	rt := mkRuntime(rtName)
	if err := rt.Attach(reg, lm); err != nil {
		b.Fatal(err)
	}
	return reg, lm, rt
}

// BenchmarkFig5Memcached measures the memaslap mixed workload per
// runtime (insertion-intensive mix; the search-intensive sub-benchmarks
// use 10% inserts).
func BenchmarkFig5Memcached(b *testing.B) {
	for _, mix := range []struct {
		name      string
		insertPct int
	}{{"insert50", 50}, {"search90", 10}} {
		for _, rtName := range []string{"origin", "ido", "justdo", "atlas", "mnemosyne", "nvthreads"} {
			b.Run(fmt.Sprintf("%s/%s", mix.name, rtName), func(b *testing.B) {
				reg, lm, rt := newBenchWorld(b, rtName, 1<<26)
				env := &memcache.Env{Reg: reg, LM: lm}
				cache, _, err := memcache.New(env, 1<<12)
				if err != nil {
					b.Fatal(err)
				}
				t, _ := rt.NewThread()
				gen := workload.NewUniform(1, 1<<12, mix.insertPct)
				for i := 0; i < 512; i++ {
					op := gen.Next()
					t.Exec(func() { cache.Set(t, op.Key, op.Key^3, op.Val) })
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op := gen.Next()
					t.Exec(func() {
						if op.Kind == workload.OpInsert {
							cache.Set(t, op.Key, op.Key^3, op.Val)
						} else {
							cache.Get(t, op.Key, op.Key^3)
						}
					})
				}
			})
		}
	}
}

// BenchmarkFig6Redis measures the lru_test 80/20 workload per runtime.
func BenchmarkFig6Redis(b *testing.B) {
	for _, rtName := range []string{"origin", "ido", "justdo", "atlas", "nvml"} {
		b.Run(rtName, func(b *testing.B) {
			reg, lm, rt := newBenchWorld(b, rtName, 1<<26)
			env := &redis.Env{Reg: reg}
			_ = lm
			db, _, err := redis.New(env, 1<<12)
			if err != nil {
				b.Fatal(err)
			}
			t, _ := rt.NewThread()
			gen := workload.NewPowerLaw(1, 1<<12, 20)
			for i := 0; i < 512; i++ {
				op := gen.Next()
				t.Exec(func() { db.Set(t, op.Key, op.Val) })
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				t.Exec(func() {
					if op.Kind == workload.OpInsert {
						db.Set(t, op.Key, op.Val)
					} else {
						db.Get(t, op.Key)
					}
				})
			}
		})
	}
}

// BenchmarkFig7Microbenchmarks measures the four data structures per
// runtime (single-threaded per-op cost; the thread sweep is idobench's).
func BenchmarkFig7Microbenchmarks(b *testing.B) {
	for _, structure := range []string{"stack", "queue", "orderedlist", "hashmap"} {
		for _, rtName := range []string{"ido", "justdo", "atlas", "mnemosyne"} {
			b.Run(fmt.Sprintf("%s/%s", structure, rtName), func(b *testing.B) {
				reg, lm, rt := newBenchWorld(b, rtName, 1<<26)
				env := &ds.Env{Reg: reg, LM: lm}
				t, _ := rt.NewThread()
				rng := rand.New(rand.NewSource(1))
				var op func()
				switch structure {
				case "stack":
					s, _, _ := ds.NewStack(env)
					op = func() {
						if rng.Intn(2) == 0 {
							s.Push(t, 1)
						} else {
							s.Pop(t)
						}
					}
				case "queue":
					q, _, _ := ds.NewQueue(env)
					op = func() {
						if rng.Intn(2) == 0 {
							q.Enqueue(t, 1)
						} else {
							q.Dequeue(t)
						}
					}
				case "orderedlist":
					l, _, _ := ds.NewList(env)
					for k := uint64(2); k <= 128; k += 2 {
						k := k
						t.Exec(func() { l.Put(t, k, k) })
					}
					op = func() {
						k := uint64(rng.Intn(128)) + 1
						if rng.Intn(2) == 0 {
							l.Put(t, k, k)
						} else {
							l.Get(t, k)
						}
					}
				case "hashmap":
					m, _, _ := ds.NewHashMap(env, 64)
					op = func() {
						k := uint64(rng.Intn(1024)) + 1
						if rng.Intn(2) == 0 {
							m.Put(t, k, k)
						} else {
							m.Get(t, k)
						}
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Exec(op)
				}
			})
		}
	}
}

// BenchmarkFig8RegionStats runs the compiled kernels in the VM and
// reports the Fig. 8 headline metrics alongside per-op cost.
func BenchmarkFig8RegionStats(b *testing.B) {
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		b.Fatal(err)
	}
	reg := region.Create(1<<26, benchConfig(1<<26))
	lm := locks.NewManager(reg)
	m := vm.New(reg, lm, prog, vm.ModeIDO)
	stk, err := irprog.NewStack(reg, lm)
	if err != nil {
		b.Fatal(err)
	}
	th, _ := m.NewThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Call("stack_push", stk, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := m.Stats()
	if s.Regions > 0 {
		var le1, le4, tot uint64
		for i, c := range s.StoresPerRegion {
			tot += c
			if i <= 1 {
				le1 += c
			}
		}
		for i, c := range s.OutputsPerRegion {
			if i < 5 {
				le4 += c
			}
		}
		b.ReportMetric(float64(le1)/float64(tot)*100, "%regions<=1store")
		b.ReportMetric(float64(le4)/float64(s.Regions)*100, "%regions<5regs")
	}
}

// BenchmarkTable1Recovery measures recovery time after a fixed amount of
// work, reporting the Atlas/iDO ratio as a metric.
func BenchmarkTable1Recovery(b *testing.B) {
	recoverOnce := func(rtName string) time.Duration {
		size := 1 << 26
		reg := region.Create(size, benchConfig(size))
		lm := locks.NewManager(reg)
		var rt persist.Runtime
		if rtName == "ido" {
			rt = core.New(core.DefaultConfig())
		} else {
			rt = atlas.New(atlas.Config{Retain: true})
		}
		if err := rt.Attach(reg, lm); err != nil {
			b.Fatal(err)
		}
		env := &ds.Env{Reg: reg, LM: lm}
		s, _, _ := ds.NewStack(env)
		t, _ := rt.NewThread()
		for i := 0; i < 3000; i++ {
			s.Push(t, uint64(i))
		}
		// Kill mid-FASE for realism: arm a tiny budget and push once.
		reg.Dev.ArmLocalCrash(25)
		func() {
			defer func() { recover() }()
			s.Push(t, 1)
		}()
		reg.Dev.ArmLocalCrash(-1)
		reg.Dev.Crash(nvm.CrashRandom, rand.New(rand.NewSource(1)))
		reg2, err := region.Attach(reg.Dev)
		if err != nil {
			b.Fatal(err)
		}
		lm2 := locks.NewManager(reg2)
		start := time.Now()
		if rtName == "ido" {
			rt2 := core.New(core.DefaultConfig())
			if err := rt2.Attach(reg2, lm2); err != nil {
				b.Fatal(err)
			}
			rr := persist.NewResumeRegistry()
			ds.RegisterAll(rr, &ds.Env{Reg: reg2, LM: lm2})
			if _, err := rt2.Recover(rr); err != nil {
				b.Fatal(err)
			}
		} else {
			rt2 := atlas.New(atlas.Config{Retain: true})
			if err := rt2.Attach(reg2, lm2); err != nil {
				b.Fatal(err)
			}
			if _, err := rt2.Recover(nil); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	b.Run("ratio", func(b *testing.B) {
		var atlasNS, idoNS int64
		for i := 0; i < b.N; i++ {
			idoNS += recoverOnce("ido").Nanoseconds()
			atlasNS += recoverOnce("atlas").Nanoseconds()
		}
		if idoNS > 0 {
			b.ReportMetric(float64(atlasNS)/float64(idoNS), "atlas/ido")
		}
	})
}

// BenchmarkFig9LatencySensitivity measures a persistent store+boundary
// path under added NVM latency for the three systems.
func BenchmarkFig9LatencySensitivity(b *testing.B) {
	for _, ns := range []int{0, 100, 1000} {
		for _, rtName := range []string{"ido", "justdo", "atlas"} {
			b.Run(fmt.Sprintf("%dns/%s", ns, rtName), func(b *testing.B) {
				size := 1 << 24
				cfg := benchConfig(size)
				cfg.ExtraNS = ns
				reg := region.Create(size, cfg)
				lm := locks.NewManager(reg)
				rt := mkRuntime(rtName)
				if err := rt.Attach(reg, lm); err != nil {
					b.Fatal(err)
				}
				env := &ds.Env{Reg: reg, LM: lm}
				s, _, _ := ds.NewStack(env)
				t, _ := rt.NewThread()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Exec(func() { s.Push(t, uint64(i)) })
				}
			})
		}
	}
}

// BenchmarkAblationCoalescing measures the §IV-B optimization directly.
func BenchmarkAblationCoalescing(b *testing.B) {
	for _, coalesce := range []bool{true, false} {
		b.Run(fmt.Sprintf("coalesce=%v", coalesce), func(b *testing.B) {
			size := 1 << 24
			reg := region.Create(size, benchConfig(size))
			lm := locks.NewManager(reg)
			rt := core.New(core.Config{Coalesce: coalesce})
			if err := rt.Attach(reg, lm); err != nil {
				b.Fatal(err)
			}
			env := &ds.Env{Reg: reg, LM: lm}
			s, _, _ := ds.NewStack(env)
			t, _ := rt.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Push(t, uint64(i))
			}
		})
	}
}
