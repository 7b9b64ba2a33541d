package nvm

import "github.com/ido-nvm/ido/internal/obs"

// Bulk word transfers. These observe and update the cache exactly like
// per-word Load64/Store64 but charge the per-call overhead (counter
// stripe, line lock) once per line, which is what lets page-granularity
// systems (NVThreads) copy 4 KB pages without paying 512 lock round
// trips, and lets runtimes write back a whole region's dirty set in one
// call (FlushLines).

// ReadWords fills dst with consecutive words starting at 8-aligned addr.
// Like Load64 it is lock-free: each word independently observes the
// cached or the persistent copy.
func (d *Device) ReadWords(addr uint64, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	d.checkAddr(addr)
	d.checkAddr(addr + uint64(len(dst)-1)*WordSize)
	d.count(statLoads, uint64(len(dst)))
	i := 0
	for i < len(dst) {
		a := addr + uint64(i)*WordSize
		wi := a >> wordShift & (wordsPerLine - 1)
		n := int(wordsPerLine - wi)
		if n > len(dst)-i {
			n = len(dst) - i
		}
		p := d.readPage(a)
		if p == nil {
			clear(dst[i : i+n])
			i += n
			continue
		}
		valid := p.state[pageLine(a)].Load() >> validShift & laneMask
		w := pageWord(a)
		for k := 0; k < n; k++ {
			if valid&(1<<(wi+uint64(k))) != 0 {
				dst[i+k] = loadWord(&p.cached[w+uint64(k)])
			} else {
				dst[i+k] = loadWord(&p.words[w+uint64(k)])
			}
		}
		i += n
	}
}

// WriteWords stores consecutive words starting at 8-aligned addr into the
// volatile cache (dirty, unflushed), like a sequence of Store64 calls.
func (d *Device) WriteWords(addr uint64, src []uint64) {
	if len(src) == 0 {
		return
	}
	d.checkAddr(addr)
	d.checkAddr(addr + uint64(len(src)-1)*WordSize)
	d.count(statStores, uint64(len(src)))
	i := 0
	for i < len(src) {
		a := addr + uint64(i)*WordSize
		wi := a >> wordShift & (wordsPerLine - 1)
		n := int(wordsPerLine - wi)
		if n > len(src)-i {
			n = len(src) - i
		}
		var mask uint32
		p := d.readPage(a)
		if p == nil {
			p = d.installPage(a)
		}
		w := pageWord(a)
		s := &p.state[pageLine(a)]
		st := d.lockLine(s)
		for k := 0; k < n; k++ {
			storeWord(&p.cached[w+uint64(k)], src[i+k])
			mask |= 1 << (wi + uint64(k))
		}
		unlockLine(s, st|mask<<validShift|mask<<dirtyShift)
		i += n
	}
}

// WriteWordsNT stores consecutive words directly into the persistence
// domain (non-temporal), invalidating any cached copies. One latency
// charge covers each line rather than each word, modeling streaming
// stores. A Fence is still required to order against later writes.
func (d *Device) WriteWordsNT(addr uint64, src []uint64) {
	if len(src) == 0 {
		return
	}
	d.checkAddr(addr)
	d.checkAddr(addr + uint64(len(src)-1)*WordSize)
	d.count(statNTStores, uint64(len(src)))
	tr := d.trc.Load()
	extra := int(d.extraNS.Load())
	i := 0
	for i < len(src) {
		a := addr + uint64(i)*WordSize
		wi := a >> wordShift & (wordsPerLine - 1)
		n := int(wordsPerLine - wi)
		if n > len(src)-i {
			n = len(src) - i
		}
		var mask uint32
		p := d.readPage(a)
		if p == nil {
			p = d.installPage(a)
		}
		w := pageWord(a)
		s := &p.state[pageLine(a)]
		st := d.lockLine(s)
		for k := 0; k < n; k++ {
			storeWord(&p.words[w+uint64(k)], src[i+k])
			mask |= 1 << (wi + uint64(k))
		}
		unlockLine(s, st&^(mask<<validShift|mask<<dirtyShift))
		spin(d.cfg.NTStoreNS + extra)
		if tr != nil {
			// One event per word, matching the per-word stat count.
			for k := 0; k < n; k++ {
				tr.DevEmit(obs.KNTStore, a+uint64(k)*WordSize, 0)
			}
		}
		i += n
	}
}

// FlushLines issues a CLWB for each line base address in lines: same
// event counts, crash-injection ticks, and latency charges as calling
// CLWB once per entry, with the per-call overhead paid once. Runtimes use
// it to write back a region's whole dirty set at a boundary (§III-A
// step 1).
func (d *Device) FlushLines(lines []uint64) {
	if len(lines) == 0 {
		return
	}
	cost := d.cfg.FlushNS + int(d.extraNS.Load())
	tr := d.trc.Load()
	for _, base := range lines {
		d.crashTick()
		d.checkAddr(base)
		d.count(statFlushes, 1)
		t0 := tr.Clock()
		if p := d.readPage(base); p != nil {
			d.flushLine(p, pageLine(base))
		}
		spin(cost)
		if tr != nil {
			tr.DevSpan(obs.KFlush, base, 0, t0)
		}
	}
}
