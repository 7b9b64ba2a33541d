package nvm

import "encoding/binary"

// Byte-granularity helpers. Sub-word writes are implemented as
// read-modify-write of the containing word, mirroring what real hardware
// does inside an 8-byte atomic unit. Callers needing failure atomicity for
// multi-word data must log it through a runtime; these helpers only move
// bytes.

// WriteBytes copies b into the device starting at byte address addr.
// addr need not be aligned.
func (d *Device) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		wa := addr &^ (WordSize - 1)
		off := int(addr - wa)
		n := WordSize - off
		if n > len(b) {
			n = len(b)
		}
		var buf [WordSize]byte
		binary.LittleEndian.PutUint64(buf[:], d.Load64(wa))
		copy(buf[off:off+n], b[:n])
		d.Store64(wa, binary.LittleEndian.Uint64(buf[:]))
		addr += uint64(n)
		b = b[n:]
	}
}

// ReadBytes copies n bytes starting at byte address addr into a fresh
// slice. addr need not be aligned.
func (d *Device) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	d.ReadBytesInto(addr, out)
	return out
}

// ReadBytesInto fills dst with bytes starting at addr.
func (d *Device) ReadBytesInto(addr uint64, dst []byte) {
	for len(dst) > 0 {
		wa := addr &^ (WordSize - 1)
		off := int(addr - wa)
		n := WordSize - off
		if n > len(dst) {
			n = len(dst)
		}
		var buf [WordSize]byte
		binary.LittleEndian.PutUint64(buf[:], d.Load64(wa))
		copy(dst[:n], buf[off:off+n])
		addr += uint64(n)
		dst = dst[n:]
	}
}

// Memset64 stores val into count consecutive words starting at addr.
func (d *Device) Memset64(addr, val uint64, count int) {
	for i := 0; i < count; i++ {
		d.Store64(addr+uint64(i)*WordSize, val)
	}
}

// SnapshotPersistent returns a copy of the persistence domain only —
// the bytes that would survive an immediate CrashDiscard. Volatile cache
// contents are deliberately excluded.
func (d *Device) SnapshotPersistent() []byte {
	out := make([]byte, d.limit)
	for pi := range d.pages {
		p := d.pages[pi].Load()
		if p == nil {
			continue // never written: zeros, which out already holds
		}
		img := out[pi<<pageShift : min((pi+1)<<pageShift, len(out))]
		// Hold each line's lock while copying it so an in-flight
		// write-back is never observed torn within a line.
		for l := 0; l*LineSize < len(img); l++ {
			s := &p.state[l]
			st := d.lockLine(s)
			for w := l * wordsPerLine; w < (l+1)*wordsPerLine; w++ {
				binary.LittleEndian.PutUint64(img[w*WordSize:], loadWord(&p.words[w]))
			}
			unlockLine(s, st)
		}
	}
	return out
}

// RestorePersistent overwrites the persistence domain from a snapshot and
// clears the cache, as when a recovery process maps a region file after a
// crash. The snapshot length must match the device size. A page the
// device never wrote is installed only if the snapshot holds a nonzero
// word in it.
func (d *Device) RestorePersistent(img []byte) {
	if len(img) != d.Size() {
		panic("nvm: snapshot size mismatch")
	}
	var words [wordsPerPage]uint64
	for pi := range d.pages {
		chunk := img[pi<<pageShift : min((pi+1)<<pageShift, len(img))]
		var nz uint64
		for w := range len(chunk) / WordSize {
			words[w] = binary.LittleEndian.Uint64(chunk[w*WordSize:])
			nz |= words[w]
		}
		p := d.pages[pi].Load()
		if p == nil {
			if nz == 0 {
				continue
			}
			p = d.installPage(uint64(pi) << pageShift)
		}
		for l := 0; l*LineSize < len(chunk); l++ {
			s := &p.state[l]
			d.lockLine(s)
			for w := l * wordsPerLine; w < (l+1)*wordsPerLine; w++ {
				storeWord(&p.words[w], words[w])
			}
			unlockLine(s, 0) // cached copies die with the old image
		}
	}
}
