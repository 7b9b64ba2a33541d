package chaos

import (
	"fmt"
	"sort"

	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/region"
)

// HeapLeak holds a recovered region's heap against what can still be
// reached: it reports the allocated blocks, and their bytes, that hold
// none of the addresses in reach (the application's own blocks: tables,
// chained items, lock holders) and no per-thread log of a runtime's list
// (iDO's, Mnemosyne's and NVThreads', the three the leaking workloads
// run on). The allocator's own count is checked against the same walk,
// so allocated bytes == reachable + leaked holds exactly. A block leaks
// when a crash lands between its Alloc and the store that links it, or
// between its unlinking FASE and the Free after it.
func HeapLeak(reg *region.Region, reach []uint64) (blocks int, bytes uint64, err error) {
	logs, err := idolog.Inspect(reg)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range logs {
		reach = append(reach, e.LogAddr)
	}
	const baselineLogNext = 16 // both baselines chain their logs through word 2
	for _, root := range []int{region.RootMnemosyneHead, region.RootNVThreadsHead} {
		for p, n := reg.Root(root), 0; p != 0; p = reg.Dev.Load64(p + baselineLogNext) {
			if n++; n > walkBound {
				return 0, 0, fmt.Errorf("log list of root %d exceeds %d logs (cycle?)", root, walkBound)
			}
			reach = append(reach, p)
		}
	}
	sort.Slice(reach, func(i, j int) bool { return reach[i] < reach[j] })
	err = reg.Alloc.Audit(func(blk, size uint64) {
		i := sort.Search(len(reach), func(i int) bool { return reach[i] > blk })
		if i == len(reach) || reach[i] >= blk+size {
			blocks++
			bytes += size
		}
	})
	return blocks, bytes, err
}
