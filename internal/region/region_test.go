package region

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ido-nvm/ido/internal/nvm"
)

func TestCreateAndRoots(t *testing.T) {
	r := Create(1<<16, nvm.Config{})
	if r.Root(RootIDOHead) != 0 {
		t.Fatal("fresh region has nonzero iDO head")
	}
	r.SetRoot(3, 0xDEAD0)
	if got := r.Root(3); got != 0xDEAD0 {
		t.Fatalf("Root(3) = %#x", got)
	}
}

func TestRootSlotRangePanics(t *testing.T) {
	r := Create(1<<16, nvm.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("bad slot did not panic")
		}
	}()
	r.Root(99)
}

func TestRootsSurviveCrash(t *testing.T) {
	r := Create(1<<16, nvm.Config{})
	r.SetRoot(1, 4096)
	r2, err := r.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Root(1); got != 4096 {
		t.Fatalf("root lost across crash: %#x", got)
	}
}

func TestAllocationsSurviveCrashAttach(t *testing.T) {
	r := Create(1<<16, nvm.Config{})
	p, err := r.Alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Persist payload explicitly, like a runtime would.
	r.Dev.Store64(p, 777)
	r.Dev.CLWB(p)
	r.Dev.Fence()
	r.SetRoot(2, p)
	r2, err := r.Crash(nvm.CrashRandom, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Dev.Load64(r2.Root(2)); got != 777 {
		t.Fatalf("payload lost: %d", got)
	}
	if err := r2.Alloc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveOpenFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "heap.img")
	r := Create(1<<15, nvm.Config{})
	p, _ := r.Alloc.Alloc(16)
	r.Dev.Store64(p, 31337)
	r.Dev.CLWB(p)
	r.Dev.Fence()
	r.SetRoot(5, p)
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenFile(path, nvm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Dev.Load64(r2.Root(5)); got != 31337 {
		t.Fatalf("payload after file round trip: %d", got)
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.img")
	if err := writeFile(path, []byte("not a region")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, nvm.Config{}); err == nil {
		t.Fatal("OpenFile accepted garbage")
	}
}

// TestOlderFormatImageFailsAttach: an image of an older format — v1 (fold
// and ping-pong iDO logs, older key→shard placement), v2 (kv regions
// with other register plans), v3 (logs without a capacity word) or v4 (a
// heap without slab segments) — must stop at Attach's bad-magic error,
// which names the version found, not reach Recover.
func TestOlderFormatImageFailsAttach(t *testing.T) {
	for _, old := range []uint64{0x69444F5245470001, 0x69444F5245470002, 0x69444F5245470003, 0x69444F5245470004} {
		path := filepath.Join(t.TempDir(), "old.img")
		if err := Create(1<<15, nvm.Config{}).SaveFile(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(raw, old)      // container header
		binary.LittleEndian.PutUint64(raw[16:], old) // the device's magic word
		if err := writeFile(path, raw); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("bad magic %#x", old)
		if _, err := OpenFile(path, nvm.Config{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d image: got %v, want Attach's %q", old&0xFFFF, err, want)
		}
	}
}

func TestAttachRejectsUnformattedDevice(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: 1 << 14})
	if _, err := Attach(dev); err == nil {
		t.Fatal("Attach accepted unformatted device")
	}
}

func TestUnpersistedRootWriteLostOnCrash(t *testing.T) {
	// Sanity check of the threat model: writing heap data without CLWB
	// then crashing with discard loses the data, while SetRoot (which
	// fences internally) survives.
	r := Create(1<<15, nvm.Config{})
	p, _ := r.Alloc.Alloc(16)
	r.Dev.Store64(p, 555) // not flushed
	r.SetRoot(4, p)
	r2, err := r.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Root(4) != p {
		t.Fatal("fenced root lost")
	}
	if got := r2.Dev.Load64(p); got != 0 {
		t.Fatalf("unflushed heap write survived: %d", got)
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
