// Package region implements the persistent-region manager that iDO borrows
// from Atlas (§IV-C): a named region of NVM that a process maps into its
// address space, with a table of persistent root pointers (including the
// iDO_head slot that anchors the per-thread log list) and an nv_malloc
// heap. Regions can be persisted to files so that a "process restart" in
// another Device observes exactly the bytes that had reached the
// persistence domain.
package region

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"

	"github.com/ido-nvm/ido/internal/nvalloc"
	"github.com/ido-nvm/ido/internal/nvm"
)

const (
	// magic is "iDOREG" plus a format version. v2: append-only iDO log
	// records and lock slots in the log header (internal/core), key→shard
	// placement by the server's current hash. v3: the register plans of
	// the kv stores' store-only regions (kv/memcache, kv/redis). v4: the
	// log's second word carries its register capacity and word stride
	// beside the thread id (internal/idolog), and the VM's logs share the
	// layout. v5: the heap keeps its class blocks in slab segments whose
	// first header carries a slab bit (internal/nvalloc), and Attach hops
	// from segment head to segment head. An image of an older build must
	// not attach: its logs would be mis-decoded by Recover or resumed with
	// the wrong registers, and its heap, small blocks carved anywhere and
	// no slab bit set, would be hopped as a run of extents — correct, but
	// one header load per block.
	magic    = 0x69444F5245470005
	numRoots = 32
	// Layout (byte offsets).
	offMagic = 0
	offSize  = 8
	offRoots = 64
	// HeapStart is where the nv_malloc arena begins.
	HeapStart = offRoots + numRoots*8
)

// Reserved root slots. Application code may use slots 1–15; slots 16 and
// above belong to runtime implementations.
const (
	// RootIDOHead holds the head of the global linked list of per-thread
	// iDO logs (Fig. 3).
	RootIDOHead = 0
	// RootAtlasHead anchors the Atlas per-thread undo-log list.
	RootAtlasHead = 16
	// RootMnemosyneHead anchors the Mnemosyne per-thread redo-log list.
	RootMnemosyneHead = 17
	// RootNVThreadsHead anchors the NVThreads per-thread page-log list.
	RootNVThreadsHead = 18
	// RootNVMLHead anchors the NVML per-thread undo-log list.
	RootNVMLHead = 19
)

// Region is a mapped persistent region: a device plus its allocator and
// root table.
type Region struct {
	Dev   *nvm.Device
	Alloc *nvalloc.Allocator
	size  int
}

// Create formats a fresh region of the given size on a new device.
func Create(size int, cfg nvm.Config) *Region {
	if size < HeapStart+1024 {
		panic(fmt.Sprintf("region: size %d too small", size))
	}
	cfg.Size = size
	dev := nvm.New(cfg)
	dev.Store64(offMagic, magic)
	dev.Store64(offSize, uint64(size))
	for i := 0; i < numRoots; i++ {
		dev.Store64(offRoots+uint64(i)*8, 0)
	}
	dev.PersistRange(0, HeapStart)
	dev.Fence()
	alloc := nvalloc.New(dev, HeapStart, uint64(dev.Size()))
	return &Region{Dev: dev, Alloc: alloc, size: size}
}

// Attach reopens a region on a device whose persistence domain already
// holds a formatted region — the post-crash path. The allocator reads one
// block header per heap segment and extent here, and rebuilds its free
// lists from the rest lazily.
func Attach(dev *nvm.Device) (*Region, error) {
	if dev.Load64(offMagic) != magic {
		return nil, fmt.Errorf("region: bad magic %#x", dev.Load64(offMagic))
	}
	size := int(dev.Load64(offSize))
	if size != dev.Size() {
		return nil, fmt.Errorf("region: recorded size %d != device size %d", size, dev.Size())
	}
	alloc, err := nvalloc.Attach(dev, HeapStart, uint64(dev.Size()))
	if err != nil {
		return nil, fmt.Errorf("region: heap scan: %w", err)
	}
	return &Region{Dev: dev, Alloc: alloc, size: size}, nil
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return r.size }

// SetRoot durably stores a root pointer: the store is written back and
// fenced before SetRoot returns.
func (r *Region) SetRoot(slot int, addr uint64) {
	r.checkSlot(slot)
	a := uint64(offRoots + slot*8)
	r.Dev.Store64(a, addr)
	r.Dev.CLWB(a)
	r.Dev.Fence()
}

// Root reads a root pointer.
func (r *Region) Root(slot int) uint64 {
	r.checkSlot(slot)
	return r.Dev.Load64(uint64(offRoots + slot*8))
}

func (r *Region) checkSlot(slot int) {
	if slot < 0 || slot >= numRoots {
		panic(fmt.Sprintf("region: root slot %d out of range", slot))
	}
}

// Crash simulates process death: volatile cache state is destroyed per
// mode and a fresh Region is attached over the surviving bytes, exactly
// as a recovery process would re-map the region file.
func (r *Region) Crash(mode nvm.CrashMode, rng *rand.Rand) (*Region, error) {
	r.Dev.Crash(mode, rng)
	return Attach(r.Dev)
}

// SaveFile writes the persistence domain to path (volatile cache contents
// are excluded, as they would not survive the crash that precedes reading
// the file back).
func (r *Region) SaveFile(path string) error {
	img := r.Dev.SnapshotPersistent()
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(img)))
	return os.WriteFile(path, append(hdr, img...), 0o644)
}

// OpenFile loads a region image saved by SaveFile into a new device and
// attaches to it.
func OpenFile(path string, cfg nvm.Config) (*Region, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Any version's container is let through to Attach, whose bad-magic
	// error names the version found.
	if len(raw) < 16 || binary.LittleEndian.Uint64(raw)>>16 != magic>>16 {
		return nil, fmt.Errorf("region: %s is not a region image", path)
	}
	size := int(binary.LittleEndian.Uint64(raw[8:]))
	if size != len(raw)-16 {
		return nil, fmt.Errorf("region: %s truncated (header says %d bytes, have %d)", path, size, len(raw)-16)
	}
	cfg.Size = size
	dev := nvm.New(cfg)
	dev.RestorePersistent(raw[16:])
	return Attach(dev)
}
