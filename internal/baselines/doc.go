// Package baselines groups the failure-atomicity systems the iDO paper
// compares against (§V): Atlas (UNDO, lock-based), Mnemosyne (REDO,
// transactional), JUSTDO (per-store resumption), NVThreads (page-granular
// REDO), NVML (library UNDO), and the uninstrumented Origin baseline. Each
// subpackage implements persist.Runtime, so the data structures and
// key-value stores in this repository run unchanged on every system.
//
// A subpackage is only its mechanism: its log format, Store64 and
// Load64, commit, and what its recovery does with each log. The rest is
// the frame in internal/persist that every runtime embeds —
// persist.Frame (Name, Attach, Stats, the thread registry, log creation
// and the recovery walk, which hands the logs it walked to the next
// NewThread) and persist.ThreadFrame (the thread's id, log, trace ring and
// counters, and the FASE nesting bracket) — so the systems differ in
// their logs and their recovery and in nothing else (§V).
package baselines
