// Package lineset provides the dirty-line set that tracks the distinct
// cache lines a section of code dirties, in insertion order, for one
// write-back pass over them: the iDO log (internal/idolog, so both the
// core runtime and the VM) writes back a region's lines at its boundary
// (§III-A step 1), and the Atlas and NVML baselines a FASE's data lines
// at its end.
//
// Most dynamic regions touch a handful of lines (Fig. 8: the vast
// majority perform ≤2 stores), so membership starts as a linear scan of a
// short list. A region that keeps dirtying new lines — a hashmap rehash,
// a bulk transfer — engages an epoch-stamped open-addressed table: each
// slot carries the epoch in which it was written, so Reset is one epoch
// increment instead of an O(table) clear, and a single wide region does
// not tax every later boundary. Per-store tracking is O(1) either way,
// which removes the quadratic cliff the VM's linear dirty list hit on
// large regions.
package lineset

// small is the list length beyond which the set engages the hash table.
// Scanning up to this many entries is cheaper than hashing.
const small = 16

// slot is one table entry: the line address stamped with the epoch that
// wrote it. A slot whose epoch differs from the set's is empty.
type slot struct {
	line  uint64
	epoch uint64
}

// Set tracks distinct LineSize-aligned addresses in insertion order.
// The zero value is ready to use. Not safe for concurrent use (each
// runtime thread owns one).
type Set struct {
	list  []uint64 // every tracked line, insertion order
	tab   []slot   // epoch-stamped open-addressed table; nil while small
	mask  uint64   // len(tab)-1
	epoch uint64   // current generation; stale slots are free
}

// hash mixes a 64-aligned line address into a table slot.
func hash(line uint64) uint64 {
	return (line >> 6) * 0x9E3779B97F4A7C15
}

// Add inserts line (a line-aligned address) if not already present.
func (s *Set) Add(line uint64) {
	if s.tab == nil {
		for _, l := range s.list {
			if l == line {
				return
			}
		}
		s.list = append(s.list, line)
		if len(s.list) > small {
			s.grow()
		}
		return
	}
	i := hash(line) & s.mask
	for {
		e := &s.tab[i]
		if e.epoch != s.epoch {
			e.line, e.epoch = line, s.epoch
			s.list = append(s.list, line)
			if uint64(len(s.list))*4 > (s.mask+1)*3 {
				s.grow()
			}
			return
		}
		if e.line == line {
			return
		}
		i = (i + 1) & s.mask
	}
}

// grow (re)builds the table at double capacity (or engages it at the
// initial size) and rehashes the list under the current epoch.
func (s *Set) grow() {
	n := uint64(64)
	if s.tab != nil {
		n = (s.mask + 1) * 2
	}
	s.tab = make([]slot, n)
	s.mask = n - 1
	if s.epoch == 0 {
		s.epoch = 1 // fresh slots have epoch 0; never collide with it
	}
	for _, line := range s.list {
		i := hash(line) & s.mask
		for s.tab[i].epoch == s.epoch {
			i = (i + 1) & s.mask
		}
		s.tab[i] = slot{line: line, epoch: s.epoch}
	}
}

// Len reports the number of tracked lines.
func (s *Set) Len() int { return len(s.list) }

// Lines returns the tracked lines in insertion order. The slice aliases
// internal storage and is invalidated by Reset.
func (s *Set) Lines() []uint64 { return s.list }

// Reset empties the set in O(1): the epoch advances, invalidating every
// table slot at once. The list's capacity and the table are retained, so
// a workload alternating wide and narrow regions neither reallocates nor
// re-clears.
func (s *Set) Reset() {
	s.list = s.list[:0]
	if s.tab == nil {
		return
	}
	s.epoch++
	if s.epoch == 0 { // wrapped after 2^64 resets: clear and restart
		clear(s.tab)
		s.epoch = 1
	}
}
