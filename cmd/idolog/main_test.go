package main

import (
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/idolog"
	"github.com/ido-nvm/ido/internal/irprog"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
	"github.com/ido-nvm/ido/internal/vm"
)

// TestDumpDecodesDemoImage: the demo image crashes one thread mid-FASE
// holding one lock with two logged registers; the dump must show the
// decoded record and the audit preview.
func TestDumpDecodesDemoImage(t *testing.T) {
	var b strings.Builder
	if err := dump(&b, buildDemo()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"1 thread log(s):",
		"MID-FASE at region 0x1234 (2 record pair(s) over zeros)",
		"pair 1  r1   = 42 (0x2a)",
		"holds 1 lock(s): holder@0x",
		"recovery would: resumed at region 0x1234, re-acquiring 1 lock(s), restoring 2 word(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q:\n%s", want, out)
		}
	}
}

// TestDumpDecodesVMImage: a VM thread running compiled IR dies inside
// stack_push after the FASE's first store. Its log is the shared one with
// the VM's capacity in the header, so the dump decodes it like any other:
// the region to resume, the logged registers, the held lock.
func TestDumpDecodesVMImage(t *testing.T) {
	prog, err := irprog.Compile(compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Probe for the first device event at which a crash leaves the FASE
	// published: stack_push dies right after its first store.
	var reg *region.Region
	for budget := int64(0); ; budget++ {
		reg = region.Create(1<<20, nvm.Config{})
		lm := locks.NewManager(reg)
		m := vm.New(reg, lm, prog, vm.ModeIDO)
		stk, err := irprog.NewStack(reg, lm)
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		m.SetCrashBudget(budget)
		_, err = th.Call("stack_push", stk, 7)
		m.SetCrashBudget(-1)
		if err != vm.ErrCrashed {
			t.Fatalf("budget %d: stack_push returned %v before its FASE published, want the injected crash", budget, err)
		}
		if logs, err := idolog.Inspect(reg); err != nil || logs[0].PC != 0 {
			break
		}
	}
	reg.Dev.Crash(nvm.CrashDiscard, nil)
	reg2, err := region.Attach(reg.Dev)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := dump(&b, reg2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"1 thread log(s):",
		"(121 registers): MID-FASE at region 0x",
		"record pair(s) over zeros",
		"holds 1 lock(s): holder@0x",
		"recovery would: resumed at region 0x",
		"re-acquiring 1 lock(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q:\n%s", want, out)
		}
	}
}

// TestDumpReportsCorruptLog: a recovery_pc claiming more record pairs than
// the record area holds is reported, not decoded.
func TestDumpReportsCorruptLog(t *testing.T) {
	reg := buildDemo()
	logs, err := idolog.Inspect(reg)
	if err != nil {
		t.Fatal(err)
	}
	const pcOff = 16 // recovery_pc's offset in the log
	reg.Dev.StoreNT(logs[0].LogAddr+pcOff, logs[0].PC|0xFF<<48)
	var b strings.Builder
	if err := dump(&b, reg); err == nil || !strings.Contains(err.Error(), "255 record pairs") {
		t.Fatalf("dump of a corrupt log returned %v and printed:\n%s", err, b.String())
	}
}
