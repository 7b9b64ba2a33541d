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
	"github.com/ido-nvm/ido/internal/region"
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

// Runtime is the JUSTDO baseline runtime.
type Runtime struct {
	reg     *region.Region
	threads persist.Threads
}

// New creates a JUSTDO runtime.
func New() *Runtime { return &Runtime{} }

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "justdo" }

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, _ *locks.Manager) error {
	rt.reg = reg
	return nil
}

// NewThread implements persist.Runtime.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	raw, err := rt.reg.Alloc.Alloc(logSize + nvm.LineSize)
	if err != nil {
		return nil, fmt.Errorf("justdo: allocating log: %w", err)
	}
	log := (raw + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	rt.reg.Dev.PersistRange(log, logSize)
	rt.reg.Dev.Fence()
	rt.threads.Lock()
	defer rt.threads.Unlock()
	t := &thread{rt: rt, id: rt.threads.Next(), log: log}
	t.initAddrs()
	t.rc = rt.reg.Dev.Tracer().ThreadRing(fmt.Sprintf("justdo/t%d", t.id))
	rt.threads.Add(t.id, &t.stats)
	return t, nil
}

// Recover implements persist.Runtime. Store-granularity resumption needs
// the VM's ability to jump to an arbitrary instruction; see internal/vm.
// The pass is still bracketed as a recovery attempt so the chaos harness
// sees a consistent attempt count across runtimes; a refused pass has no
// audit.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	st, _ := persist.Recover(rt.reg, rt.Name(), nil)
	st.Audit = nil
	return st, fmt.Errorf(
		"justdo: native recovery is store-granularity and provided by the VM (internal/vm); see DESIGN.md")
}

// Stats implements persist.Runtime.
func (rt *Runtime) Stats() persist.RuntimeStats { return rt.threads.Stats() }

type thread struct {
	rt    *Runtime
	id    int
	log   uint64
	depth int
	owned int
	site  uint64 // per-thread store-site counter standing in for the pc

	// Precomputed absolute addresses of the log fields and ownership
	// slots. The log base never moves after NewThread, so every
	// per-store base+offset addition is hoisted here once.
	aPC, aAddr, aVal, aIntention, aOwnBits, aShadow uint64
	aOwn                                            [numOwned]uint64

	rc           *obs.Ring // event ring; nil when tracing is off
	faseT0       int64     // tracer clock at FASE entry
	faseLogBytes uint64    // log payload written during the current FASE

	stats persist.RuntimeStats
}

func (t *thread) initAddrs() {
	t.aPC = t.log + logPC
	t.aAddr = t.log + logAddr
	t.aVal = t.log + logVal
	t.aIntention = t.log + logIntention
	t.aOwnBits = t.log + logOwnBits
	t.aShadow = t.log + logShadow
	for i := range t.aOwn {
		t.aOwn[i] = t.log + logOwnBase + uint64(i)*8
	}
}

func (t *thread) ID() int        { return t.id }
func (t *thread) Exec(op func()) { op() }

// Lock performs JUSTDO's two-fence protocol: persist the intention to
// acquire, take the lock, then persist ownership.
func (t *thread) Lock(l *locks.Lock) {
	dev := t.rt.reg.Dev
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	dev.Store64(t.aIntention, l.Holder())
	dev.CLWB(t.aIntention)
	dev.Fence() // fence 1: intention
	l.Acquire()
	dev.Store64(t.aOwn[t.owned], l.Holder())
	dev.Store64(t.aOwnBits, uint64(t.owned+1))
	dev.Store64(t.aIntention, 0)
	dev.PersistRange(t.log, logOwnBase+uint64(t.owned+1)*8)
	dev.Fence() // fence 2: ownership
	t.rc.Emit(obs.KLockAcq, l.Holder(), 0)
	t.owned++
	t.depth++
}

// Unlock performs the symmetric two-fence release.
func (t *thread) Unlock(l *locks.Lock) {
	dev := t.rt.reg.Dev
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
	dev.PersistRange(t.log, logOwnBase+uint64(t.owned)*8)
	dev.Fence() // fence 2: ownership dropped
	t.owned--
	t.rc.Emit(obs.KLockRel, l.Holder(), 0)
	if t.depth == 1 {
		t.stats.FASEs++
		dev.Store64(t.aPC, 0)
		dev.CLWB(t.aPC)
		dev.Fence()
		if t.rc != nil {
			t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
			t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
		}
	}
	t.depth--
	l.Release()
}

func (t *thread) BeginDurable() {
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	t.depth++
}

func (t *thread) EndDurable() {
	if t.depth == 1 {
		dev := t.rt.reg.Dev
		t.stats.FASEs++
		dev.Store64(t.aPC, 0)
		dev.CLWB(t.aPC)
		dev.Fence()
		if t.rc != nil {
			t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
			t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
		}
	}
	t.depth--
}

// Store64 logs ⟨pc, addr, value⟩, fences, performs the store, and fences
// again so the data is persistent before the next log entry overwrites
// this one — JUSTDO's per-store discipline on volatile-cache hardware.
func (t *thread) Store64(addr, val uint64) {
	if t.depth == 0 {
		t.rt.reg.Dev.Store64(addr, val)
		return
	}
	t.loggedStore(addr, val)
	t.stats.Stores++
}

// loggedStore is the per-mutation protocol: two persist fences.
func (t *thread) loggedStore(addr, val uint64) {
	dev := t.rt.reg.Dev
	t.site++
	dev.Store64(t.aPC, t.site)
	dev.Store64(t.aAddr, addr)
	dev.Store64(t.aVal, val)
	dev.CLWB(t.aPC) // pc/addr/val share the log's first line
	dev.Fence()     // log entry durable before the store
	dev.Store64(addr, val)
	dev.CLWB(addr)
	dev.Fence() // store durable before the next log entry
	t.stats.LoggedEntries++
	t.stats.LoggedBytes += 24
	t.faseLogBytes += 24
	t.rc.Emit(obs.KLogAppend, 24, t.site)
	// Under JUSTDO every inter-store span is a one-store "region".
	t.stats.StoresPerRegion[1]++
	t.stats.Regions++
}

// Load64 reads persistent data. Inside a FASE, JUSTDO's restricted
// programming model forbids caching values in registers (§I): every
// FASE-local definition — including the result of a load — lives in
// nonvolatile memory and is itself a logged store. We model that by
// writing each in-FASE load result through to the thread's NVM shadow
// slot with the full two-fence per-store protocol, exactly what the
// paper's JUSTDO pays for traversal state.
func (t *thread) Load64(addr uint64) uint64 {
	v := t.rt.reg.Dev.Load64(addr)
	if t.depth > 0 {
		t.loggedStore(t.aShadow, v)
	}
	return v
}

// Boundary is ignored: JUSTDO logs at store granularity.
func (t *thread) Boundary(uint64, ...persist.RegVal) {}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
