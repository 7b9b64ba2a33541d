//go:build !race

package nvm

// Hot-path word and counter accessors, non-race build.
//
// Data words (words/cached) are always written under the owning line's
// lock, but Load64/ReadWords read them without the lock, so a reader can
// race a writer on one 8-byte-aligned word. On every 64-bit platform Go
// supports, an aligned 8-byte load or store is a single untorn machine
// access and the line-state atomics around it order everything else —
// which is precisely the 8-byte-atomicity contract the simulated hardware
// provides (§II-A). The race build (wordops_race.go) routes these through
// sync/atomic so `go test -race` proves the locking discipline has no
// other races; this build uses plain memory ops to keep the simulator off
// the hot path it is supposed to measure.
//
// Counters: each goroutine lands on its own padded stripe with very high
// probability, so plain read-modify-write keeps totals exact for
// single-threaded histories (the property tests rely on) and drops an
// event when two goroutines that share a stripe increment it at once.
// Loads, stores, NT stores, write-backs, evictions and crashes count
// this way: an atomic add would cost the two hottest calls more than
// they cost themselves. Fences do not come through addCounter: Fence
// adds atomically, which costs nothing beside its FenceNS spin, so the
// fence total is exact under any concurrency and equals a tracer's fence
// count. The race build makes every
// increment atomic, which makes every total exact.

func loadWord(p *uint64) uint64     { return *p }
func storeWord(p *uint64, v uint64) { *p = v }

func addCounter(p *uint64, n uint64) { *p += n }
func readCounter(p *uint64) uint64   { return *p }
func resetCounter(p *uint64)         { *p = 0 }
