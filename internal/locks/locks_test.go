package locks

import (
	"sync"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

func newMgr(t *testing.T) (*region.Region, *Manager) {
	t.Helper()
	reg := region.Create(1<<16, nvm.Config{})
	return reg, NewManager(reg)
}

func TestCreateAndMutualExclusion(t *testing.T) {
	_, m := newMgr(t)
	l, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Acquire()
				counter++
				l.Release()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestHolderSurvivesCrashAndMapsToFreshLock(t *testing.T) {
	reg, m := newMgr(t)
	l, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	holder := l.Holder()
	l.Acquire() // held at crash time

	reg2, err := reg.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(reg2)
	nl := m2.ByHolder(holder)
	// The fresh transient lock starts unlocked, per §III-B.
	if !nl.TryAcquire() {
		t.Fatal("recovered lock not free")
	}
	nl.Release()
	// Same holder -> same lock object.
	if m2.ByHolder(holder) != nl {
		t.Fatal("ByHolder not idempotent")
	}
	if m2.Count() != 1 {
		t.Fatalf("count = %d", m2.Count())
	}
}

func TestByHolderRejectsGarbageAddress(t *testing.T) {
	reg, m := newMgr(t)
	p, _ := reg.Alloc.Alloc(8)
	reg.Dev.Store64(p, 12345)
	defer func() {
		if recover() == nil {
			t.Fatal("garbage holder accepted")
		}
	}()
	m.ByHolder(p)
}

func TestTryAcquire(t *testing.T) {
	_, m := newMgr(t)
	l, _ := m.Create()
	if !l.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if l.TryAcquire() {
		t.Fatal("second TryAcquire succeeded")
	}
	l.Release()
}

func TestAcquireUnderArmedInjectionStillExcludes(t *testing.T) {
	// With injection armed but a huge budget, the spin path must still
	// provide mutual exclusion.
	reg, m := newMgr(t)
	l, _ := m.Create()
	reg.Dev.ArmLocalCrash(1 << 60)
	defer reg.Dev.ArmLocalCrash(-1)
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Acquire()
				counter++
				l.Release()
			}
		}()
	}
	wg.Wait()
	if counter != 2000 {
		t.Fatalf("counter = %d", counter)
	}
}

// TestLockWaiterDiesWithItsDevice: a waiter blocked on a lock whose
// holder is inside a crashed device's FASE must die with the device, as
// every other user of the device does, instead of waiting for a release
// that never comes.
func TestLockWaiterDiesWithItsDevice(t *testing.T) {
	reg, m := newMgr(t)
	l, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	reg.Dev.ArmLocalCrash(1 << 60)
	defer reg.Dev.ArmLocalCrash(-1)
	l.Acquire() // the holder, which the crash kills before it releases

	waiting := make(chan struct{})
	died := make(chan any, 1)
	go func() {
		defer func() { died <- recover() }()
		close(waiting)
		l.Acquire()
		l.Release()
	}()
	<-waiting
	reg.Dev.TriggerLocalCrash()
	select {
	case r := <-died:
		if _, ok := r.(nvm.CrashSignal); !ok {
			t.Fatalf("waiter ended with %v, want the device's CrashSignal", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked 5 s after its device crashed")
	}
}
