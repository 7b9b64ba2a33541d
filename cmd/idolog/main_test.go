package main

import (
	"strings"
	"testing"
)

// TestDumpDecodesDemoImage: the demo image crashes one thread mid-FASE
// holding one lock with two logged registers; the dump must show the
// decoded record and the audit preview.
func TestDumpDecodesDemoImage(t *testing.T) {
	var b strings.Builder
	dump(&b, buildDemo())
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
