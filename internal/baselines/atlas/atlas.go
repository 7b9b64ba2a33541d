// Package atlas implements the Atlas baseline (Chakrabarti et al., OOPSLA
// 2014) as characterized in the iDO paper: an UNDO-logging, lock-based
// failure-atomicity system that equates FASEs with outermost critical
// sections. Every persistent store appends a 32-byte undo record that must
// be durable before the store itself can reach NVM (one persist fence per
// store); data writes-back are deferred to the end of the FASE. Lock
// acquires and releases are also logged so that recovery can track
// cross-FASE happens-before dependences and roll back incomplete FASEs —
// plus any completed FASEs that transitively observed their data.
//
// Two log-retention modes mirror Atlas's helper-thread pruning:
//
//   - pruned (default): a thread's log is discarded at each FASE end,
//     after the FASE's data is durable and before its locks are released
//     (the steady state a caught-up helper thread maintains);
//   - retained (Config.Retain): logs accumulate for the whole run — the
//     state an in-arrears helper leaves behind; recovery must scan and
//     order everything, which is what makes Atlas recovery time grow with
//     run length (Table I).
package atlas

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Log entry kinds.
const (
	kStore   = 1 // addr = store target, val = old value
	kAcquire = 2 // addr = holder, val = observed lock clock
	kRelease = 3 // addr = holder, val = new lock clock; aux = 1 ends the FASE
)

// Entry layout: {kind|tag<<8, addr, val, aux} — 32 bytes, two per cache
// line. The kind word's high 56 bits hold a tag hashed over the chunk's
// generation and the entry payload, so a scan can reject both torn
// appends (count word persisted, entry words not) and stale entries
// (chunks are reused after truncation without erasure, so a torn count
// can expose a valid-looking entry from an earlier, completed FASE —
// rolling one back would corrupt committed data).
const (
	entrySize = 32
	chunkHdr  = 64  // {next, used, gen}, padded to one line
	chunkCap  = 504 // entries per chunk
	chunkSize = chunkHdr + chunkCap*entrySize
	// Thread record layout.
	trNext  = 0
	trID    = 8
	trChunk = 16 // first log chunk
	trSize  = 64
)

// entryTag hashes a chunk generation and entry payload into the kind
// word's high 56 bits. Every truncation bumps the chunk's generation, so
// an entry surviving from a pre-truncation epoch mismatches even though
// its bytes parse.
func entryTag(gen, kind, addr, val, aux uint64) uint64 {
	x := gen + 0x632be59bd9b4e019
	for _, w := range [...]uint64{kind, addr, val, aux} {
		x ^= w
		x *= 0x9e3779b97f4a7c15
		x ^= x >> 29
	}
	return x >> 8
}

// Config selects the log-retention mode.
type Config struct {
	// Retain keeps all log entries for the lifetime of the run instead of
	// pruning at FASE completion. Required for Table I and for recovery
	// of cross-FASE dependences.
	Retain bool
}

// Runtime is the Atlas baseline runtime.
type Runtime struct {
	cfg Config
	reg *region.Region
	lm  *locks.Manager

	clockMu sync.Mutex
	clocks  map[uint64]uint64 // holder -> lock lamport clock

	mu      sync.Mutex
	threads []*thread
	nextID  int
}

// New creates an Atlas runtime.
func New(cfg Config) *Runtime {
	return &Runtime{cfg: cfg, clocks: make(map[uint64]uint64)}
}

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "atlas" }

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, lm *locks.Manager) error {
	rt.reg = reg
	rt.lm = lm
	return nil
}

// lockClock returns the stored clock of a lock holder. Callers must hold
// the corresponding lock, which serializes per-holder access; the mutex
// only protects the map itself.
func (rt *Runtime) lockClock(holder uint64) uint64 {
	rt.clockMu.Lock()
	defer rt.clockMu.Unlock()
	return rt.clocks[holder]
}

func (rt *Runtime) setLockClock(holder, v uint64) {
	rt.clockMu.Lock()
	defer rt.clockMu.Unlock()
	rt.clocks[holder] = v
}

// NewThread implements persist.Runtime: it allocates a persistent thread
// record plus a first log chunk and links the record into the global list.
func (rt *Runtime) NewThread() (persist.Thread, error) {
	dev := rt.reg.Dev
	raw, err := rt.reg.Alloc.Alloc(trSize + nvm.LineSize)
	if err != nil {
		return nil, fmt.Errorf("atlas: allocating thread record: %w", err)
	}
	rec := (raw + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	chunk, err := rt.newChunk()
	if err != nil {
		return nil, err
	}
	// Deferred unlock: the device calls below panic with nvm.CrashSignal
	// under armed injection, and the mutex must not survive the unwind.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id := rt.nextID
	rt.nextID++
	dev.Store64(rec+trID, uint64(id))
	dev.Store64(rec+trChunk, chunk)
	dev.Store64(rec+trNext, rt.reg.Root(region.RootAtlasHead))
	dev.PersistRange(rec, trSize)
	dev.Fence()
	rt.reg.SetRoot(region.RootAtlasHead, rec)
	t := &thread{rt: rt, id: id, rec: rec, firstChunk: chunk}
	t.setChunk(chunk, 0)
	t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("atlas/t%d", id))
	rt.threads = append(rt.threads, t)
	return t, nil
}

func (rt *Runtime) newChunk() (uint64, error) {
	raw, err := rt.reg.Alloc.Alloc(chunkSize + nvm.LineSize)
	if err != nil {
		return 0, fmt.Errorf("atlas: allocating log chunk: %w", err)
	}
	c := (raw + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	dev := rt.reg.Dev
	dev.Store64(c+0, 0)  // next
	dev.Store64(c+8, 0)  // used
	dev.Store64(c+16, 1) // gen: 1 so recycled heap bytes (gen 0) never match
	dev.CLWB(c)
	dev.Fence()
	return c, nil
}

type thread struct {
	rt  *Runtime
	id  int
	rec uint64

	firstChunk uint64
	curChunk   uint64
	curUsed    int
	curGen     uint64   // current chunk's generation (cached from c+16)
	touched    []uint64 // chunks written since the last prune

	// Precomputed addresses for the current chunk, refilled by setChunk:
	// entry[i] is the address of entry i, aNext/aUsed the header words.
	// One refill per chunkCap appends hoists the base+offset math out of
	// the per-store path.
	entry [chunkCap]uint64
	aNext uint64
	aUsed uint64

	depth   int
	lamport uint64
	dirty   []uint64 // data lines to write back at FASE end

	rc           *obs.Ring // event ring; nil when tracing is off
	faseT0       int64     // tracer clock at FASE entry
	faseLogBytes uint64    // log payload written during the current FASE

	stats persist.RuntimeStats
}

func (t *thread) ID() int        { return t.id }
func (t *thread) Exec(op func()) { op() }

// setChunk makes c the active log chunk and refills the entry-address
// table, so append does no address arithmetic of its own.
func (t *thread) setChunk(c uint64, used int) {
	t.curChunk = c
	t.curUsed = used
	t.curGen = t.rt.reg.Dev.Load64(c + 16)
	t.aNext = c + 0
	t.aUsed = c + 8
	for i := range t.entry {
		t.entry[i] = c + chunkHdr + uint64(i)*entrySize
	}
}

// append writes one undo entry and fences it durable — the per-store
// persist cost the paper charges Atlas for.
func (t *thread) append(kind, addr, val, aux uint64) {
	dev := t.rt.reg.Dev
	if t.curUsed == chunkCap {
		next := dev.Load64(t.aNext)
		if next == 0 {
			var err error
			next, err = t.rt.newChunk()
			if err != nil {
				panic(err)
			}
			dev.Store64(t.aNext, next)
			dev.CLWB(t.aNext)
		}
		t.setChunk(next, int(dev.Load64(next+8)))
	}
	if len(t.touched) == 0 || t.touched[len(t.touched)-1] != t.curChunk {
		t.touched = append(t.touched, t.curChunk)
	}
	e := t.entry[t.curUsed]
	dev.Store64(e+0, kind|entryTag(t.curGen, kind, addr, val, aux)<<8)
	dev.Store64(e+8, addr)
	dev.Store64(e+16, val)
	dev.Store64(e+24, aux)
	t.curUsed++
	dev.Store64(t.aUsed, uint64(t.curUsed))
	dev.CLWB(e)
	dev.CLWB(t.aUsed)
	dev.Fence()
	t.stats.LoggedEntries++
	t.stats.LoggedBytes += entrySize
	t.faseLogBytes += entrySize
	t.rc.Emit(obs.KLogAppend, entrySize, kind)
}

func (t *thread) trackLine(addr uint64) {
	line := addr &^ (nvm.LineSize - 1)
	for _, l := range t.dirty {
		if l == line {
			return
		}
	}
	t.dirty = append(t.dirty, line)
}

// Lock acquires l and logs ownership plus the observed lock clock — the
// happens-before edge recovery needs.
func (t *thread) Lock(l *locks.Lock) {
	l.Acquire()
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	v := t.rt.lockClock(l.Holder())
	if v+1 > t.lamport {
		t.lamport = v + 1
	} else {
		t.lamport++
	}
	t.append(kAcquire, l.Holder(), v, 0)
	t.rc.Emit(obs.KLockAcq, l.Holder(), 0)
	t.depth++
}

// Unlock logs the release (bumping the lock clock) and, at FASE end,
// makes the FASE's data durable before either pruning or sealing the log.
func (t *thread) Unlock(l *locks.Lock) {
	dev := t.rt.reg.Dev
	last := t.depth == 1
	t.lamport++
	t.rt.setLockClock(l.Holder(), t.lamport)
	if last {
		// FASE end: data durable first (flush + fence).
		dev.FlushLines(t.dirty)
		dev.Fence()
		t.dirty = t.dirty[:0]
		if t.rt.cfg.Retain {
			t.append(kRelease, l.Holder(), t.lamport, 1)
		} else {
			t.prune()
		}
		t.stats.FASEs++
		if t.rc != nil {
			t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
			t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
		}
	} else {
		t.append(kRelease, l.Holder(), t.lamport, 0)
	}
	t.rc.Emit(obs.KLockRel, l.Holder(), 0)
	t.depth--
	l.Release()
}

// prune discards the thread's log — legal only after the FASE's data has
// been fenced durable and before its last lock is released. Bumping each
// chunk's generation alongside the count invalidates the surviving entry
// bytes no matter which of the two words reaches NVM first.
func (t *thread) prune() {
	dev := t.rt.reg.Dev
	for _, c := range t.touched {
		dev.Store64(c+16, dev.Load64(c+16)+1)
		dev.Store64(c+8, 0)
		dev.CLWB(c + 8) // gen shares the header line
	}
	dev.Fence()
	t.touched = t.touched[:0]
	t.setChunk(t.firstChunk, 0)
}

func (t *thread) BeginDurable() {
	if t.rc != nil && t.depth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	t.lamport++
	t.append(kAcquire, 0, t.lamport, 0)
	t.depth++
}

func (t *thread) EndDurable() {
	dev := t.rt.reg.Dev
	if t.depth == 1 {
		dev.FlushLines(t.dirty)
		dev.Fence()
		t.dirty = t.dirty[:0]
		t.lamport++
		if t.rt.cfg.Retain {
			t.append(kRelease, 0, t.lamport, 1)
		} else {
			t.prune()
		}
		t.stats.FASEs++
		if t.rc != nil {
			t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
			t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
		}
	} else {
		t.lamport++
		t.append(kRelease, 0, t.lamport, 0)
	}
	t.depth--
}

// Store64 appends the undo record (durable before the store can leak to
// NVM) and performs the store into the cache; the data line is written
// back at FASE end.
func (t *thread) Store64(addr, val uint64) {
	dev := t.rt.reg.Dev
	if t.depth == 0 {
		dev.Store64(addr, val)
		return
	}
	old := dev.Load64(addr)
	t.append(kStore, addr, old, t.lamport)
	dev.Store64(addr, val)
	t.trackLine(addr)
	t.stats.Stores++
}

func (t *thread) Load64(addr uint64) uint64 { return t.rt.reg.Dev.Load64(addr) }

// Boundary is ignored: Atlas logs at store granularity.
func (t *thread) Boundary(uint64, ...persist.RegVal) {}

// Stats implements persist.Runtime.
func (rt *Runtime) Stats() persist.RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out persist.RuntimeStats
	for _, t := range rt.threads {
		out.Add(&t.stats)
	}
	return out
}

// ---- Recovery ----

type logEntry struct {
	kind, addr, val, aux uint64
	thread               int
	idx                  int // position within the thread's log
}

type fase struct {
	thread   int
	entries  []logEntry
	complete bool
	maxLam   uint64
}

// Recover scans every thread's retained undo log, reconstructs FASEs and
// their happens-before edges from the lock clocks, rolls back all
// incomplete FASEs plus every FASE that transitively acquired a lock
// released by a rolled-back FASE, and truncates the logs. Rollback applies
// undo records in reverse happens-before order.
func (rt *Runtime) Recover(*persist.ResumeRegistry) (persist.RecoveryStats, error) {
	start := time.Now()
	dev := rt.reg.Dev
	attempt := dev.EnterRecovery()
	defer dev.ExitRecovery()
	var stats persist.RecoveryStats
	stats.Attempt = attempt
	stats.Audit = &obs.RecoveryAudit{Runtime: rt.Name(), Attempt: attempt}
	rc := dev.Tracer().ThreadRing("atlas/recover")
	scanT0 := rc.Clock()

	// 1. Scan all logs.
	var fases []*fase
	releaseIndex := map[[2]uint64]*fase{} // (holder, clock) -> releasing FASE
	var logsToReset [][]uint64            // chunks per thread, for truncation
	auditIdx := map[int]int{}             // tid -> index into stats.Audit.Threads
	for rec := rt.reg.Root(region.RootAtlasHead); rec != 0; rec = dev.Load64(rec + trNext) {
		stats.Threads++
		tid := int(dev.Load64(rec + trID))
		auditIdx[tid] = len(stats.Audit.Threads)
		stats.Audit.Add(obs.ThreadAudit{ThreadID: tid, LogAddr: rec, Action: obs.AuditIdle})
		var cur *fase
		depth := 0
		idx := 0
		var chunks []uint64
		for c := dev.Load64(rec + trChunk); c != 0; c = dev.Load64(c + 0) {
			chunks = append(chunks, c)
			gen := dev.Load64(c + 16)
			used := int(dev.Load64(c + 8))
			if used > chunkCap {
				used = chunkCap // torn header: clamp
			}
			for i := 0; i < used; i++ {
				e := c + chunkHdr + uint64(i)*entrySize
				w := dev.Load64(e + 0)
				ent := logEntry{
					kind:   w & 0xff,
					addr:   dev.Load64(e + 8),
					val:    dev.Load64(e + 16),
					aux:    dev.Load64(e + 24),
					thread: tid,
					idx:    idx,
				}
				idx++
				stats.LogEntries++
				if ent.kind < kStore || ent.kind > kRelease {
					continue // torn trailing entry
				}
				if w>>8 != entryTag(gen, ent.kind, ent.addr, ent.val, ent.aux) {
					// Torn append (count persisted before the entry words)
					// or a stale pre-truncation entry exposed by chunk
					// reuse: either way not part of this epoch's log.
					continue
				}
				switch ent.kind {
				case kAcquire:
					if depth == 0 {
						cur = &fase{thread: tid}
						fases = append(fases, cur)
					}
					depth++
					cur.entries = append(cur.entries, ent)
				case kRelease:
					if cur == nil {
						continue
					}
					cur.entries = append(cur.entries, ent)
					if ent.val > cur.maxLam {
						cur.maxLam = ent.val
					}
					if ent.aux == 1 {
						cur.complete = true
						depth = 0
						releaseIndex[[2]uint64{ent.addr, ent.val}] = cur
						cur = nil
					} else {
						depth--
						releaseIndex[[2]uint64{ent.addr, ent.val}] = cur
					}
				case kStore:
					if cur == nil {
						continue // store outside any FASE span: torn log
					}
					cur.entries = append(cur.entries, ent)
					if ent.aux > cur.maxLam {
						cur.maxLam = ent.aux
					}
				}
			}
			if used < chunkCap {
				break
			}
		}
		logsToReset = append(logsToReset, chunks)
	}
	rc.Span(obs.KRecovery, obs.PhaseScan, stats.LogEntries, scanT0)

	// 2. Seed the rollback set with incomplete FASEs; propagate along
	// release->acquire edges (a FASE that acquired a lock at clock v
	// depends on the FASE that released it at clock v).
	rollback := map[*fase]bool{}
	var queue []*fase
	for _, f := range fases {
		if !f.complete {
			rollback[f] = true
			queue = append(queue, f)
		}
	}
	// Build acquire edges: for each FASE, which FASEs acquired after its
	// releases. Index acquires by (holder, clock).
	acquirers := map[[2]uint64][]*fase{}
	for _, f := range fases {
		for _, e := range f.entries {
			if e.kind == kAcquire && e.addr != 0 {
				acquirers[[2]uint64{e.addr, e.val}] = append(acquirers[[2]uint64{e.addr, e.val}], f)
			}
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, e := range f.entries {
			if e.kind != kRelease || e.addr == 0 {
				continue
			}
			for _, dep := range acquirers[[2]uint64{e.addr, e.val}] {
				if !rollback[dep] {
					rollback[dep] = true
					queue = append(queue, dep)
				}
			}
		}
	}

	// 3. Apply undo records of the rollback set in reverse happens-before
	// order (descending lamport, then descending per-thread index).
	rbT0 := rc.Clock()
	var undo []logEntry
	for f := range rollback {
		for _, e := range f.entries {
			if e.kind == kStore {
				undo = append(undo, e)
			}
		}
		stats.RolledBack++
		if i, ok := auditIdx[f.thread]; ok {
			stats.Audit.Threads[i].Action = obs.AuditRolledBack
		}
	}
	sort.Slice(undo, func(i, j int) bool {
		if undo[i].aux != undo[j].aux {
			return undo[i].aux > undo[j].aux
		}
		if undo[i].thread != undo[j].thread {
			return undo[i].thread > undo[j].thread
		}
		return undo[i].idx > undo[j].idx
	})
	for _, e := range undo {
		dev.Store64(e.addr, e.val)
		dev.CLWB(e.addr)
		if i, ok := auditIdx[e.thread]; ok {
			stats.Audit.Threads[i].WordsRestored++
		}
	}
	dev.Fence()
	rc.Span(obs.KRecovery, obs.PhaseRollback, uint64(len(undo)), rbT0)

	// 4. Truncate every log. The undo application above is fenced durable
	// before the first truncation store, so a crash anywhere in this
	// phase leaves a prefix of logs truncated and the rest intact — a
	// second Recover re-applies the surviving logs' undo (idempotent) and
	// finishes the truncation. Bumping gen alongside the count keeps the
	// surviving entry bytes unmatchable whichever word persists first.
	trT0 := rc.Clock()
	for _, chunks := range logsToReset {
		for _, c := range chunks {
			dev.Store64(c+16, dev.Load64(c+16)+1)
			dev.Store64(c+8, 0)
			dev.CLWB(c + 8)
		}
	}
	dev.Fence()
	rc.Span(obs.KRecovery, obs.PhaseTruncate, uint64(len(logsToReset)), trT0)

	stats.Elapsed = time.Since(start)
	return stats, nil
}

var (
	_ persist.Runtime = (*Runtime)(nil)
	_ persist.Thread  = (*thread)(nil)
)
