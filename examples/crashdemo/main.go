// crashdemo: watch recovery-via-resumption happen at the instruction
// level. The demo compiles the built-in ordered-list kernel with the iDO
// compiler, executes inserts in the VM, crashes at a chosen event, and
// shows the recovery_pc, the restored register file, and the resumed
// FASE completing.
//
// Run: go run ./examples/crashdemo
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/vm"
)

func main() {
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Show what the compiler did to list_insert.
	cf := prog.Funcs["list_insert"]
	fmt.Println("== instrumented list_insert (boundary = idempotent-region cut) ==")
	fmt.Print(cf.F.String())
	fmt.Printf("// %d idempotent regions\n\n", len(cf.Regions))

	reg := region.Create(1<<22, nvm.Config{Size: 1 << 22})
	lm := locks.NewManager(reg)
	m := vm.New(reg, lm, prog, vm.ModeIDO)
	lst, err := irprog.NewList(reg, lm)
	if err != nil {
		log.Fatal(err)
	}
	th, err := m.NewThread()
	if err != nil {
		log.Fatal(err)
	}

	// A few complete inserts, then one that dies mid-FASE.
	for _, k := range []uint64{30, 10, 50} {
		if _, err := th.Call("list_insert", lst, k, k+1); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("inserted keys 10, 30, 50; now inserting 20 with a crash armed...")
	m.SetCrashBudget(60) // device events: dies inside the insert FASE
	_, err = th.Call("list_insert", lst, 20, 21)
	fmt.Printf("call result: %v\n", err)
	m.SetCrashBudget(-1)
	if err == nil {
		log.Fatal("the armed insert did not crash")
	}

	// Power failure with the adversarial write-back model.
	reg.Dev.Crash(nvm.CrashRandom, rand.New(rand.NewSource(3)))
	reg2, err := region.Attach(reg.Dev)
	if err != nil {
		log.Fatal(err)
	}
	m2 := vm.New(reg2, locks.NewManager(reg2), prog, vm.ModeIDO)
	st, err := m2.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d FASE(s) resumed from their interrupted region\n", st.Resumed)

	// Walk the recovered list: sorted, containing every completed insert
	// (and the resumed one).
	fmt.Print("recovered list:")
	dev := reg2.Dev
	for cur := dev.Load64(lst + 16); cur != 0; cur = dev.Load64(cur + 16) {
		fmt.Printf(" %d->%d", dev.Load64(cur), dev.Load64(cur+8))
	}
	fmt.Println()
}
