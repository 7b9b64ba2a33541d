package region

import (
	"fmt"
	"iter"

	"github.com/ido-nvm/ido/internal/nvm"
)

// The per-thread log lists — Fig. 3's list anchored at iDO_head, and the
// one each baseline keeps at its own root slot — are linked and walked
// here, once, for every runtime. Each runtime keeps its own node layout:
// a list names the offset of the link word in its nodes and the bytes a
// node spans.

// Link durably pushes node onto the list anchored at root slot: it
// points node's link word, next bytes in, at the current head, writes
// back and fences node's first n bytes — the link and whatever header
// the caller has stored — and only then makes node the head. A crash
// before the root store leaves the list as it was. Callers serialise
// Link on a list.
func (r *Region) Link(slot int, node, next, n uint64) {
	r.Dev.Store64(node+next, r.Root(slot))
	r.Dev.PersistRange(node, n)
	r.Dev.Fence()
	r.SetRoot(slot, node) // fenced internally
}

// List walks the list anchored at root slot; see Chain.
func (r *Region) List(slot int, next, span uint64) iter.Seq2[uint64, error] {
	r.checkSlot(slot)
	return r.Chain(offRoots+uint64(slot)*8, next, span)
}

// Chain walks the persistent list whose first link is the word at head
// and whose nodes each hold the link to the next one next bytes in. It
// yields the nodes in list order and reads a node's link only once the
// loop body for that node is done; a zero link ends the list.
//
// A region image can come from outside the program (OpenFile), so a link
// is trusted only as far as it can be checked: it must name a
// line-aligned node whose span bytes lie inside the device, and one the
// walk has not yielded before — a cycle would otherwise hand a node to
// recovery twice, or never end. A link that fails a check ends the walk
// with an error naming it, yielded in place of a node. Distinct nodes
// also bound the walk at dev.Size()/nvm.LineSize steps.
func (r *Region) Chain(head, next, span uint64) iter.Seq2[uint64, error] {
	return func(yield func(uint64, error) bool) {
		dev := r.Dev
		seen := map[uint64]bool{}
		for p := dev.Load64(head); p != 0; p = dev.Load64(p + next) {
			err := r.Check(p, span, nvm.LineSize)
			switch {
			case err != nil:
				err = fmt.Errorf("log link after %d logs: %w", len(seen), err)
			case seen[p]:
				err = fmt.Errorf("log list returns to log %#x after %d logs", p, len(seen))
			}
			if err != nil {
				yield(0, err)
				return
			}
			seen[p] = true
			if !yield(p, nil) {
				return
			}
		}
	}
}

// Check fails unless addr is a multiple of align and the n bytes from
// addr lie inside the device: the test a list link's node passes before a
// walk reads it, and a log entry's address before recovery applies it.
func (r *Region) Check(addr, n, align uint64) error {
	size := uint64(r.Dev.Size())
	switch {
	case addr%align != 0 || addr >= size:
		aligned := fmt.Sprintf("%d-byte-aligned", align)
		if align == nvm.LineSize {
			aligned = "line-aligned"
		}
		return fmt.Errorf("%#x is no %s address inside the device's %d bytes", addr, aligned, size)
	case n > size-addr:
		return fmt.Errorf("%#x runs to %#x, past the device's %d bytes", addr, addr+n, size)
	}
	return nil
}
