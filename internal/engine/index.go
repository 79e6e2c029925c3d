package engine

import (
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
)

// Index is the ordered-index API: a uint64-keyed B+tree mapping keys to
// RIDs. OLCIndex (olctree.go) is its one implementation; the interface
// stays because callers outside the engine declare fields of this type.
//
// The interface deliberately has no Root() method: with a concurrent
// tree, a root id fetched in one call is stale by the next, so the root
// lookup and the first descent step happen as one validated step inside
// each operation. (OLCIndex keeps Root() for tests and tools.)
type Index interface {
	// Name returns the index name.
	Name() string
	// Lookup returns the RID stored under key.
	Lookup(w *sim.Worker, key uint64) (core.RID, bool, error)
	// Insert adds key → rid; duplicate keys fail with ErrKeyExists.
	Insert(w *sim.Worker, key uint64, rid core.RID) error
	// Update changes the RID under an existing key.
	Update(w *sim.Worker, key uint64, rid core.RID) error
	// Delete removes a key, reporting whether it was present.
	Delete(w *sim.Worker, key uint64) (bool, error)
	// Range visits keys in [lo, hi] in order until fn returns false.
	Range(w *sim.Worker, lo, hi uint64, fn func(key uint64, rid core.RID) bool) error
	// Stats snapshots the index's operation and contention counters.
	Stats() IndexStats
}

// IndexKind names a B+tree implementation.
//
// Deprecated: OLCIndex is the only one. The type and IndexOLC exist
// because callers outside the engine still set Options.IndexKind.
type IndexKind int

// IndexOLC is the optimistic-lock-coupling tree, the zero value.
//
// Deprecated: see IndexKind.
const IndexOLC IndexKind = 0

// IndexStats is a snapshot of one index's counters.
type IndexStats struct {
	Lookups uint64
	Inserts uint64
	Updates uint64
	Deletes uint64
	Scans   uint64
	// Restarts counts OLC descents abandoned because a version check
	// failed (a concurrent split or root change invalidated the path).
	Restarts uint64
	// LatchWaits counts frame latch acquisitions that found the latch
	// held and had to block.
	LatchWaits uint64
}

// indexCounters is the tree's counter block, one cell per worker
// stripe: every operation counts itself, and lookups run concurrently.
type indexCounters struct{ cells sim.Striped[indexCell] }

type indexCell struct {
	lookups    atomic.Uint64
	inserts    atomic.Uint64
	updates    atomic.Uint64
	deletes    atomic.Uint64
	scans      atomic.Uint64
	restarts   atomic.Uint64
	latchWaits atomic.Uint64
}

// of returns the cell w counts in.
func (c *indexCounters) of(w *sim.Worker) *indexCell { return c.cells.Of(w) }

func (c *indexCounters) snapshot() IndexStats {
	var s IndexStats
	for i := range sim.Stripes {
		cell := c.cells.At(i)
		s.Lookups += cell.lookups.Load()
		s.Inserts += cell.inserts.Load()
		s.Updates += cell.updates.Load()
		s.Deletes += cell.deletes.Load()
		s.Scans += cell.scans.Load()
		s.Restarts += cell.restarts.Load()
		s.LatchWaits += cell.latchWaits.Load()
	}
	return s
}

// CreateIndex creates an empty B+tree placed in the named region.
func (db *DB) CreateIndex(name, regionName string) (Index, error) {
	st, err := db.attachRegion(regionName)
	if err != nil {
		return nil, err
	}
	defer db.rlockState(nil).RUnlock()
	pg, err := db.newPage(nil, st, 0, page.FlagIndex|page.FlagLeaf)
	if err != nil {
		return nil, err
	}
	root := pg.fr.ID
	if err := pg.unpinDirty(db.log.Head()); err != nil {
		return nil, err
	}
	ix := &OLCIndex{db: db, st: st, name: name}
	ix.root.Store(uint64(root))
	db.registerIndex(ix)
	return ix, nil
}

// registerIndex records the index in the catalog for Stats. A repeated
// name replaces the previous entry (indexes are non-logged and tests
// re-create them freely); the replaced tree keeps working, it just
// stops being reported.
func (db *DB) registerIndex(ix Index) {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	if db.indexes == nil {
		db.indexes = make(map[string]Index)
	}
	db.indexes[ix.Name()] = ix
}
