package vm

import (
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

// TestVMEventBudget pins what compiled kernels cost under vm.ModeIDO, in
// exact device events per call: the log protocol is internal/idolog's, so
// a FASE that loads before it stores pays what the same shape pays in
// hand-written Go (TestMemcacheEventBudget, internal/kv/memcache) — nothing
// when it never stores, four fences and two NT stores when it does in one
// region. (The parent's VM-private protocol paid 11/18/4, 10/15/4, 8/11/3,
// 8/11/3, 11/16/4, 10/15/4 and 8/11/3 for these rows; an insert and a push
// publish twice — the store that links the node is cut from the stores that
// fill it — and pay the allocator's fence.) A change to idolog, to the compiler's cuts or to these kernels that adds
// or removes a persist event fails here.
func TestVMEventBudget(t *testing.T) {
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := region.Create(1<<22, nvm.Config{})
	lm := locks.NewManager(reg)
	m := New(reg, lm, prog, ModeIDO)
	tb, err := irprog.NewKVTable(reg, lm, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := irprog.NewStack(reg, lm)
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name                     string
		fn                       string
		args                     []uint64
		fences, flushes, ntStore uint64
	}{
		{"mc_set insert", "mc_set", []uint64{tb, 5, 50}, 7, 7, 3},
		{"mc_set update", "mc_set", []uint64{tb, 5, 51}, 4, 5, 2},
		{"mc_get hit", "mc_get", []uint64{tb, 5}, 0, 2, 0},
		{"mc_get miss", "mc_get", []uint64{tb, 6}, 0, 2, 0},
		{"stack_push", "stack_push", []uint64{stk, 7}, 7, 7, 3},
		{"stack_pop", "stack_pop", []uint64{stk}, 4, 4, 2},
		{"stack_pop empty", "stack_pop", []uint64{stk}, 0, 2, 0},
	} {
		before := reg.Dev.Stats()
		if _, err := th.Call(row.fn, row.args...); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		after := reg.Dev.Stats()
		f, fl, nt := after.Fences-before.Fences, after.Flushes-before.Flushes, after.NTStores-before.NTStores
		if f != row.fences || fl != row.flushes || nt != row.ntStore {
			t.Errorf("%s: %d fences, %d write-backs, %d NT stores; want %d, %d, %d",
				row.name, f, fl, nt, row.fences, row.flushes, row.ntStore)
		}
	}
}
