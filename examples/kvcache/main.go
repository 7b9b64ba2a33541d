// kvcache: the paper's Fig. 5 scenario as a runnable demo — a
// Memcached-like persistent cache under concurrent mixed traffic, killed
// by a power failure mid-burst, then recovered via resumption and
// verified.
//
// Run: go run ./examples/kvcache
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

func main() {
	reg := region.Create(64<<20, nvm.Config{Size: 64 << 20})
	lm := locks.NewManager(reg)
	rt := core.New(core.DefaultConfig())
	if err := rt.Attach(reg, lm); err != nil {
		log.Fatal(err)
	}
	env := &memcache.Env{Reg: reg, LM: lm}
	cache, tbl, err := memcache.New(env, 1<<12)
	if err != nil {
		log.Fatal(err)
	}
	reg.SetRoot(1, tbl)

	// Concurrent workers set keys; the device's crash is armed to fire
	// somewhere inside the burst.
	const workers, perWorker = 4, 300
	completed := make([][]uint64, workers)
	threads := make([]persist.Thread, workers)
	for i := range threads {
		t, err := rt.NewThread()
		if err != nil {
			log.Fatal(err)
		}
		threads[i] = t
	}
	rng := rand.New(rand.NewSource(7))
	reg.Dev.ArmLocalCrash(int64(20000 + rng.Intn(40000)))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
				}
			}()
			t := threads[g]
			for i := 0; i < perWorker; i++ {
				k := uint64(g*10000 + i + 1)
				cache.Set(t, k, k^0xBEEF, k*3)
				completed[g] = append(completed[g], k)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range completed {
		total += len(c)
	}
	fmt.Printf("power failed: %d sets had completed across %d workers\n", total, workers)

	// The crash: unflushed cache words are adversarially half-persisted.
	reg.Dev.Crash(nvm.CrashRandom, rng)

	// Process restart: reattach, register the cache's recovery code, and
	// run §III-C recovery.
	reg2, err := region.Attach(reg.Dev)
	if err != nil {
		log.Fatal(err)
	}
	lm2 := locks.NewManager(reg2)
	rt2 := core.New(core.DefaultConfig())
	if err := rt2.Attach(reg2, lm2); err != nil {
		log.Fatal(err)
	}
	env2 := &memcache.Env{Reg: reg2, LM: lm2}
	rr := persist.NewResumeRegistry()
	memcache.Register(rr, env2)
	st, err := rt2.Recover(rr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d thread logs, %d interrupted FASEs resumed in %s\n",
		st.Threads, st.Resumed, st.Elapsed)

	// Verify every completed set.
	cache2 := memcache.Attach(env2, reg2.Root(1))
	t, _ := rt2.NewThread()
	for g := 0; g < workers; g++ {
		for _, k := range completed[g] {
			v, ok := cache2.Get(t, k, k^0xBEEF)
			if !ok || v != k*3 {
				log.Fatalf("VERIFY FAILED: key %d = (%d,%v)", k, v, ok)
			}
		}
	}
	fmt.Printf("verified: all %d completed sets durable (cache holds %d items)\n",
		total, cache2.Count())
}
