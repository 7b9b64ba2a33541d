// Package locks implements transient mutexes paired with persistent
// *indirect lock holders* (iDO §III-B). The key insight from the paper is
// that mutexes themselves never need to be persistent — after a crash every
// mutex must be unlocked anyway — so each transient lock is represented in
// NVM only by an immutable holder cell. During normal execution a runtime
// records the holder's address in the owning thread's persistent lock
// array; after a crash, recovery allocates a fresh transient lock for each
// holder address it finds and hands it to the resuming thread.
package locks

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// holderMagic marks an NVM cell as an indirect lock holder.
const holderMagic = 0x1D0_10CC

// Lock is a transient mutex identified persistently by its holder
// address on its manager's device.
type Lock struct {
	mu     sync.Mutex
	holder uint64
	dev    *nvm.Device
}

// Acquire locks the transient mutex. Persistence bookkeeping (lock-array
// updates, fences) is the runtime's job, not the lock's. While crash
// injection is armed on the lock's device, waiters spin so that the
// device's injected crash also kills goroutines blocked on its locks —
// under a real power failure nobody keeps waiting.
func (l *Lock) Acquire() {
	if !l.dev.LocalCrashArmed() {
		l.mu.Lock()
		return
	}
	for !l.mu.TryLock() {
		if l.dev.LocalCrashFired() {
			panic(nvm.CrashSignal{})
		}
		runtime.Gosched()
	}
}

// Release unlocks the transient mutex.
func (l *Lock) Release() { l.mu.Unlock() }

// TryAcquire attempts the lock without blocking.
func (l *Lock) TryAcquire() bool { return l.mu.TryLock() }

// Holder returns the NVM address of the lock's indirect holder cell.
func (l *Lock) Holder() uint64 { return l.holder }

// Manager allocates holders and maps holder addresses to transient locks.
// After a crash a new Manager re-creates transient locks on demand; two
// requests for the same holder always return the same lock.
type Manager struct {
	reg *region.Region

	mu       sync.Mutex
	byHolder map[uint64]*Lock
}

// NewManager creates a lock manager over a region.
func NewManager(reg *region.Region) *Manager {
	return &Manager{reg: reg, byHolder: make(map[uint64]*Lock)}
}

// Create allocates a fresh indirect holder in NVM and returns its lock.
// The holder cell is persisted before Create returns, so its address may
// immediately be stored in persistent structures.
func (m *Manager) Create() (*Lock, error) {
	addr, err := m.reg.Alloc.Alloc(8)
	if err != nil {
		return nil, fmt.Errorf("locks: allocating holder: %w", err)
	}
	m.reg.Dev.Store64(addr, holderMagic)
	m.reg.Dev.CLWB(addr)
	m.reg.Dev.Fence()
	l := &Lock{holder: addr, dev: m.reg.Dev}
	m.mu.Lock()
	m.byHolder[addr] = l
	m.mu.Unlock()
	return l, nil
}

// ByHolder returns the transient lock for a holder address, creating it if
// this is the first reference since (re)start — the post-crash path where
// "the recovery procedure will allocate a new transient lock for every
// indirect lock holder" (§III-B).
func (m *Manager) ByHolder(addr uint64) *Lock {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.byHolder[addr]; ok {
		return l
	}
	if got := m.reg.Dev.Load64(addr); got != holderMagic {
		panic(fmt.Sprintf("locks: %#x is not a lock holder (contains %#x)", addr, got))
	}
	l := &Lock{holder: addr, dev: m.reg.Dev}
	m.byHolder[addr] = l
	return l
}

// Count reports how many transient locks the manager currently tracks.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byHolder)
}
