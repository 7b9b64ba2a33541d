// Package justdo implements JUSTDO logging (Izraelevitz et al., ASPLOS
// 2016) as evaluated in the iDO paper: a recovery-via-resumption system
// that logs ⟨pc, address, value⟩ in persistent memory immediately before
// every store in a FASE. On a conventional machine with volatile caches,
// each store therefore costs two persist-fence sequences (log entry, then
// the store itself), and each lock operation costs two more (the lock
// intention log and the lock ownership log) — the expense that motivates
// iDO. Following §V, this implementation adopts iDO's improvement of
// keeping the program stack in NVM (our register outputs are simply not
// cached across stores, matching JUSTDO's no-register-caching rule).
//
// Native recovery at store granularity requires jumping to an arbitrary
// program counter, which the VM implementation (internal/vm) provides;
// this native runtime reproduces JUSTDO's normal-execution cost model and
// defers crash recovery to the VM, as documented in DESIGN.md.
package justdo

import (
	"fmt"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
)

// Per-thread JUSTDO log layout (64-aligned).
const (
	logPC        = 0  // site id of the in-flight store (0 = none)
	logAddr      = 8  // to-be-updated address
	logVal       = 16 // value to be written
	logIntention = 24 // lock intention slot (holder address)
	logOwnBits   = 32 // owned-lock count
	logShadow    = 40 // NVM home of the current FASE-local definition
	logOwnBase   = 64 // ownership array
	numOwned     = 16
	logSize      = logOwnBase + numOwned*8
)

// Runtime is the JUSTDO baseline runtime. Its logs form no list: native
// JUSTDO does not recover (Recover).
type Runtime struct{ persist.Frame }

// New creates a JUSTDO runtime.
func New() *Runtime {
	return &Runtime{persist.NewFrame("justdo", persist.Logs{Size: logSize, Align: nvm.LineSize})}
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	dev := rt.Reg.Dev
	t := &thread{rt: rt}
	if _, err := rt.Frame.NewThread(&t.ThreadFrame, func(log uint64, _ int) error {
		dev.PersistRange(log, logSize)
		dev.Fence()
		return nil
	}); err != nil {
		return nil, err
	}
	t.initAddrs()
	return t, nil
}

// Recover implements persist.Runtime. Store-granularity resumption needs
// the VM's ability to jump to an arbitrary instruction; see internal/vm.
// The pass is still bracketed as a recovery attempt so the chaos harness
// sees a consistent attempt count across runtimes; a refused pass has no
// audit.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	st, _ := persist.Recover(rt.Reg, rt.Name(), nil)
	st.Audit = nil
	return st, fmt.Errorf(
		"justdo: native recovery is store-granularity and provided by the VM (internal/vm); see DESIGN.md")
}

type thread struct {
	persist.ThreadFrame
	rt    *Runtime
	owned int
	site  uint64 // per-thread store-site counter standing in for the pc

	// Precomputed absolute addresses of the log fields and ownership
	// slots. The log base never moves after NewThread, so every
	// per-store base+offset addition is hoisted here once.
	aPC, aAddr, aVal, aIntention, aOwnBits, aShadow uint64
	aOwn                                            [numOwned]uint64
}

func (t *thread) initAddrs() {
	t.aPC = t.Log + logPC
	t.aAddr = t.Log + logAddr
	t.aVal = t.Log + logVal
	t.aIntention = t.Log + logIntention
	t.aOwnBits = t.Log + logOwnBits
	t.aShadow = t.Log + logShadow
	for i := range t.aOwn {
		t.aOwn[i] = t.Log + logOwnBase + uint64(i)*8
	}
}

// Lock performs JUSTDO's two-fence protocol: persist the intention to
// acquire, take the lock, then persist ownership.
func (t *thread) Lock(l *locks.Lock) {
	dev := t.rt.Reg.Dev
	t.Open()
	dev.Store64(t.aIntention, l.Holder())
	dev.CLWB(t.aIntention)
	dev.Fence() // fence 1: intention
	l.Acquire()
	dev.Store64(t.aOwn[t.owned], l.Holder())
	dev.Store64(t.aOwnBits, uint64(t.owned+1))
	dev.Store64(t.aIntention, 0)
	dev.PersistRange(t.Log, logOwnBase+uint64(t.owned+1)*8)
	dev.Fence() // fence 2: ownership
	t.Ring.Emit(obs.KLockAcq, l.Holder(), 0)
	t.owned++
}

// Unlock performs the symmetric two-fence release.
func (t *thread) Unlock(l *locks.Lock) {
	dev := t.rt.Reg.Dev
	dev.Store64(t.aIntention, l.Holder())
	dev.CLWB(t.aIntention)
	dev.Fence() // fence 1: intention to release
	// Remove from the ownership array.
	idx := -1
	for i := 0; i < t.owned; i++ {
		if dev.Load64(t.aOwn[i]) == l.Holder() {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("justdo: unlocking a lock this thread does not hold")
	}
	lastSlot := t.owned - 1
	dev.Store64(t.aOwn[idx], dev.Load64(t.aOwn[lastSlot]))
	dev.Store64(t.aOwn[lastSlot], 0)
	dev.Store64(t.aOwnBits, uint64(lastSlot))
	dev.Store64(t.aIntention, 0)
	dev.PersistRange(t.Log, logOwnBase+uint64(t.owned)*8)
	dev.Fence() // fence 2: ownership dropped
	t.owned--
	t.Ring.Emit(obs.KLockRel, l.Holder(), 0)
	t.EndDurable()
	l.Release()
}

// EndDurable closes a FASE level; the outermost clears the in-flight
// store's pc, durably, before the FASE ends.
func (t *thread) EndDurable() {
	if t.Outermost() {
		dev := t.rt.Reg.Dev
		dev.Store64(t.aPC, 0)
		dev.CLWB(t.aPC)
		dev.Fence()
	}
	t.Close()
}

// Store64 logs ⟨pc, addr, value⟩, fences, performs the store, and fences
// again so the data is persistent before the next log entry overwrites
// this one — JUSTDO's per-store discipline on volatile-cache hardware.
func (t *thread) Store64(addr, val uint64) {
	if t.Depth == 0 {
		t.rt.Reg.Dev.Store64(addr, val)
		return
	}
	t.loggedStore(addr, val)
	t.Stats.Stores++
}

// loggedStore is the per-mutation protocol: two persist fences.
func (t *thread) loggedStore(addr, val uint64) {
	dev := t.rt.Reg.Dev
	t.site++
	dev.Store64(t.aPC, t.site)
	dev.Store64(t.aAddr, addr)
	dev.Store64(t.aVal, val)
	dev.CLWB(t.aPC) // pc/addr/val share the log's first line
	dev.Fence()     // log entry durable before the store
	dev.Store64(addr, val)
	dev.CLWB(addr)
	dev.Fence() // store durable before the next log entry
	t.Append(24, t.site)
	// Under JUSTDO every inter-store span is a one-store "region".
	t.Stats.StoresPerRegion[1]++
	t.Stats.Regions++
}

// Load64 reads persistent data. Inside a FASE, JUSTDO's restricted
// programming model forbids caching values in registers (§I): every
// FASE-local definition — including the result of a load — lives in
// nonvolatile memory and is itself a logged store. We model that by
// writing each in-FASE load result through to the thread's NVM shadow
// slot with the full two-fence per-store protocol, exactly what the
// paper's JUSTDO pays for traversal state.
func (t *thread) Load64(addr uint64) uint64 {
	v := t.rt.Reg.Dev.Load64(addr)
	if t.Depth > 0 {
		t.loggedStore(t.aShadow, v)
	}
	return v
}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
