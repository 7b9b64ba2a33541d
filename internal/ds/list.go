package ds

import (
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/persist"
)

// List is the sorted list traversed with hand-over-hand locking (§V-B):
// concurrent operations proceed down the list but cannot pass each other.
// Because the FASE state is carried entirely in the logged register
// slots, one set of resume entries serves every list — including the
// hash-map buckets.
//
// Layout: node [0]=key, [8]=value, [16]=next, [24]=lock holder. The list
// header is a sentinel node (key unused).
//
// Register-slot plan for list FASEs:
//
//	r0 = key   r1 = value   r2 = prev node   r3 = prev lock holder
//	r4 = cur node   r5 = cur lock holder
//
// A boundary logs only the slots (re)defined since the previous boundary;
// everything else is already durable in its fixed slot from an earlier
// boundary of the same FASE (the FASE entry logs the full live-in set).
const (
	ridInsScan  = ridListBase + 1 // loop header: read prev.next
	ridInsCheck = ridListBase + 2 // after locking cur: compare keys
	ridInsAdv   = ridListBase + 3 // before releasing prev: advance
	ridInsUpd   = ridListBase + 4 // key present: overwrite value
	ridInsLink  = ridListBase + 5 // splice a fresh node before cur
	ridInsApp   = ridListBase + 6 // append at the end (only prev locked)
	ridInsRel2  = ridListBase + 7 // release cur's then prev's lock
	ridGetScan  = ridListBase + 9
	ridGetCheck = ridListBase + 10
	ridGetAdv   = ridListBase + 11
	ridGetRel2  = ridListBase + 12 // release cur's then prev's lock
)

// A boundary precedes the FIRST release of the two-lock FASE ending —
// that is a mid-FASE release, and stores before it must never re-execute
// once another thread can take the lock — but not the FASE's FINAL
// release: the final-unlock protocol clears recovery_pc before handing
// the mutex over, so a resumed region still holds every lock it needs.

// List is a persistent sorted list with per-node locks.
type List struct {
	env *Env
	hdr uint64
}

// NewList allocates and persists a sentinel header node.
func NewList(env *Env) (*List, uint64, error) {
	l, err := env.LM.Create()
	if err != nil {
		return nil, 0, err
	}
	hdr, err := env.Reg.Alloc.Alloc(32)
	if err != nil {
		return nil, 0, err
	}
	dev := env.Reg.Dev
	dev.Store64(hdr, 0)
	dev.Store64(hdr+8, 0)
	dev.Store64(hdr+16, 0)
	dev.Store64(hdr+24, l.Holder())
	dev.PersistRange(hdr, 32)
	dev.Fence()
	return &List{env: env, hdr: hdr}, hdr, nil
}

// AttachList reopens a list at its sentinel address.
func AttachList(env *Env, hdr uint64) *List { return &List{env: env, hdr: hdr} }

func (e *Env) lockAt(holder uint64) *locks.Lock { return e.LM.ByHolder(holder) }

// Put inserts or updates key as one hand-over-hand FASE.
func (l *List) Put(t persist.Thread, key, val uint64) {
	plkH := l.env.Reg.Dev.Load64(l.hdr + 24)
	t.Lock(l.env.lockAt(plkH))
	t.Boundary(ridInsScan,
		persist.RV(0, key), persist.RV(1, val), persist.RV(2, l.hdr), persist.RV(3, plkH))
	insScan(l.env, t, key, val, l.hdr, plkH)
}

// insScan is the traversal loop. There is no boundary on the back edge:
// every cycle already carries the mandatory post-acquire (ridInsCheck)
// and pre-release (ridInsAdv) cuts, so an extra loop-header region would
// only add fences. The check and append boundaries re-log the advanced
// prev/plkH so their resumes always see current values.
func insScan(env *Env, t persist.Thread, key, val, prev, plkH uint64) {
	for {
		cur := t.Load64(prev + 16)
		if cur == 0 {
			t.Boundary(ridInsApp, persist.RV(2, prev), persist.RV(3, plkH))
			insAppend(env, t, key, val, prev, plkH)
			return
		}
		clkH := t.Load64(cur + 24)
		t.Lock(env.lockAt(clkH))
		t.Boundary(ridInsCheck, persist.RV(2, prev), persist.RV(3, plkH),
			persist.RV(4, cur), persist.RV(5, clkH))
		k := t.Load64(cur)
		if k >= key {
			if k == key {
				t.Boundary(ridInsUpd)
				insUpdate(env, t, val, cur, clkH, plkH)
				return
			}
			t.Boundary(ridInsLink)
			insLink(env, t, key, val, prev, plkH, cur, clkH)
			return
		}
		// Advance: release prev; current becomes previous.
		t.Boundary(ridInsAdv)
		t.Unlock(env.lockAt(plkH))
		prev, plkH = cur, clkH
	}
}

// insUpdate is region ridInsUpd: overwrite the value, release both locks.
func insUpdate(env *Env, t persist.Thread, val, cur, clkH, plkH uint64) {
	t.Store64(cur+8, val)
	t.Boundary(ridInsRel2)
	insRel2(env, t, clkH, plkH)
}

// insLink is region ridInsLink: splice a fresh node between prev and cur.
func insLink(env *Env, t persist.Thread, key, val, prev, plkH, cur, clkH uint64) {
	node := newNode(env, t, key, val, cur)
	t.Store64(prev+16, node)
	t.Boundary(ridInsRel2)
	insRel2(env, t, clkH, plkH)
}

// insAppend is region ridInsApp: append at the tail (only prev locked)
// and release.
func insAppend(env *Env, t persist.Thread, key, val, prev, plkH uint64) {
	node := newNode(env, t, key, val, 0)
	t.Store64(prev+16, node)
	insRel1(env, t, plkH)
}

func newNode(env *Env, t persist.Thread, key, val, next uint64) uint64 {
	nl, err := env.LM.Create()
	if err != nil {
		panic(err)
	}
	node := env.alloc(32)
	t.Store64(node, key)
	t.Store64(node+8, val)
	t.Store64(node+16, next)
	t.Store64(node+24, nl.Holder())
	return node
}

// insRel2 is region ridInsRel2: release cur then prev — one store-free
// region covering both unlocks.
func insRel2(env *Env, t persist.Thread, clkH, plkH uint64) {
	t.Unlock(env.lockAt(clkH))
	insRel1(env, t, plkH)
}

// insRel1 performs the FASE's final release.
func insRel1(env *Env, t persist.Thread, plkH uint64) {
	t.Unlock(env.lockAt(plkH))
}

// Get looks key up with hand-over-hand locking.
func (l *List) Get(t persist.Thread, key uint64) (val uint64, ok bool) {
	plkH := l.env.Reg.Dev.Load64(l.hdr + 24)
	t.Lock(l.env.lockAt(plkH))
	t.Boundary(ridGetScan,
		persist.RV(0, key), persist.RV(2, l.hdr), persist.RV(3, plkH))
	return getScan(l.env, t, key, l.hdr, plkH)
}

// getScan is the read-only traversal loop; as in insScan, the cycle is
// cut by the mandatory lock boundaries and needs no loop-header region.
func getScan(env *Env, t persist.Thread, key, prev, plkH uint64) (uint64, bool) {
	for {
		cur := t.Load64(prev + 16)
		if cur == 0 {
			getRel1(env, t, plkH)
			return 0, false
		}
		clkH := t.Load64(cur + 24)
		t.Lock(env.lockAt(clkH))
		t.Boundary(ridGetCheck, persist.RV(2, prev), persist.RV(3, plkH),
			persist.RV(4, cur), persist.RV(5, clkH))
		k := t.Load64(cur)
		if k >= key {
			var v uint64
			hit := k == key
			if hit {
				v = t.Load64(cur + 8)
			}
			t.Boundary(ridGetRel2)
			getRel2(env, t, clkH, plkH)
			return v, hit
		}
		t.Boundary(ridGetAdv)
		t.Unlock(env.lockAt(plkH))
		prev, plkH = cur, clkH
	}
}

func getRel2(env *Env, t persist.Thread, clkH, plkH uint64) {
	t.Unlock(env.lockAt(clkH))
	getRel1(env, t, plkH)
}

func getRel1(env *Env, t persist.Thread, plkH uint64) {
	t.Unlock(env.lockAt(plkH))
}

// Walk visits (key, value) in order without synchronization (tests only).
func (l *List) Walk(f func(k, v uint64)) {
	dev := l.env.Reg.Dev
	for cur := dev.Load64(l.hdr + 16); cur != 0; cur = dev.Load64(cur + 16) {
		f(dev.Load64(cur), dev.Load64(cur+8))
	}
}

// registerList registers a resume entry for each list region a crash can
// leave as recovery_pc, and no other. A list FASE publishes at its first
// store, and a release before that publishes nothing: a Put first stores
// in ridInsUpd, ridInsLink or ridInsApp, and a Get never stores. The scan,
// check and advance regions and the Get's release region therefore never
// resume; their boundaries still stage the live-ins the first publish
// writes.
func registerList(rr *persist.ResumeRegistry, env *Env) {
	rr.Register(ridInsUpd, func(t persist.Thread, rf []uint64) {
		insUpdate(env, t, rf[1], rf[4], rf[5], rf[3])
	})
	rr.Register(ridInsLink, func(t persist.Thread, rf []uint64) {
		insLink(env, t, rf[0], rf[1], rf[2], rf[3], rf[4], rf[5])
	})
	rr.Register(ridInsApp, func(t persist.Thread, rf []uint64) {
		insAppend(env, t, rf[0], rf[1], rf[2], rf[3])
	})
	rr.Register(ridInsRel2, func(t persist.Thread, rf []uint64) {
		insRel2(env, t, rf[5], rf[3])
	})
}
