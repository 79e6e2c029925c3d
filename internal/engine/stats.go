package engine

import (
	"ipa/internal/buffer"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/wal"
)

// Stats is one coherent snapshot of every layer of the engine —
// checkpointing and log-space activity, buffer pool behaviour, raw flash
// device counters, and the per-region NoFTL and page-store statistics.
// It is the supported way for examples, experiments and operators to
// observe the engine; the Log()/Pool()/Device() accessors remain only
// for tools and white-box tests.
//
// The snapshot is not atomic across layers (counters keep moving while
// it is assembled), but every individual counter is read race-free.
type Stats struct {
	// Engine-level counters.
	Checkpoints uint64 // fuzzy checkpoints taken
	LogReclaims uint64 // eager log-space reclamation passes

	// Aborts splits transaction aborts by reason, and MVCC reports the
	// version-store counters (zero with Enabled=false unless
	// Options.MVCC) — together the observability for the snapshot-read
	// win: locking reads burn LockConflict aborts under skew, snapshot
	// reads retire them.
	Aborts AbortStats
	MVCC   MVCCStats

	// WAL is the write-ahead log's snapshot: flushes that moved the
	// durable horizon, commits absorbed by another committer's group
	// flush, live volume and usage, append reservations, published and
	// durable horizons, leader batches with batch-size p50/p99, and ring
	// shape.
	WAL wal.Stats

	// Buffer pool (hits, misses, evictions, cleaner activity).
	Pool buffer.Stats

	// Raw flash array (reads, programs, delta-programs, erases, wear).
	Flash flash.Stats

	// Per-region views, keyed by region name: the NoFTL mapping layer
	// (out-of-place writes, delta writes, GC migrations/erases) and the
	// page store's IPA flush decisions.
	Regions map[string]noftl.Stats
	Stores  map[string]StoreStats

	// Indexes reports every registered index's operation and contention
	// counters (OLC restarts and latch waits), keyed by index name.
	Indexes map[string]IndexStats
}

// AbortStats attributes transaction aborts to their reason. The server
// layer adds its own PoisonedAborts counter (aborts it issues on behalf
// of failed sessions) on top of these engine-level reasons.
type AbortStats struct {
	// LockConflict counts aborts of transactions that hit the no-wait
	// lock table (ErrLockConflict) — the contention cost MVCC snapshot
	// reads retire for the read path.
	LockConflict uint64
	// Explicit counts aborts of transactions that never saw a lock
	// conflict (application rollbacks, orphan cleanup, shutdown).
	Explicit uint64
	// LockConflicts counts raw ErrLockConflict occurrences (a
	// transaction can hit several before aborting once).
	LockConflicts uint64
}

// Stats assembles a snapshot across all engine layers. After Close it
// returns ErrClosed.
func (db *DB) Stats() (Stats, error) {
	state := db.rlockState(nil)
	if db.closed.Load() {
		state.RUnlock()
		return Stats{}, ErrClosed
	}
	pool := db.pool
	state.RUnlock()

	s := Stats{
		Checkpoints: db.checkpoints.Load(),
		LogReclaims: db.reclaims.Load(),
		Aborts: AbortStats{
			LockConflict:  db.abortsLock.Load(),
			Explicit:      db.abortsExplicit.Load(),
			LockConflicts: db.lockConflicts.Load(),
		},
		MVCC:    db.vs.stats(),
		WAL:     db.log.Stats(),
		Pool:    pool.Stats(),
		Flash:   db.dev.Array().Stats(),
		Regions: make(map[string]noftl.Stats),
		Stores:  make(map[string]StoreStats),
	}
	db.catMu.Lock()
	stores := make(map[string]*PageStore, len(db.stores))
	for name, st := range db.stores {
		stores[name] = st
	}
	indexes := make(map[string]Index, len(db.indexes))
	for name, ix := range db.indexes {
		indexes[name] = ix
	}
	db.catMu.Unlock()
	for name, st := range stores {
		s.Regions[name] = st.Region().Stats()
		s.Stores[name] = st.Stats()
	}
	s.Indexes = make(map[string]IndexStats, len(indexes))
	for name, ix := range indexes {
		s.Indexes[name] = ix.Stats()
	}
	return s, nil
}
