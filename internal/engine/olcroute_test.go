package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/buffer"
	"ipa/internal/core"
)

// olcNodes walks the tree from its root and returns its internal nodes
// and its leaves. Single-threaded callers only.
func olcNodes(t *testing.T, db *DB, ix Index) (inner, leaves []core.PageID) {
	t.Helper()
	st := db.Store("main")
	level := []core.PageID{ix.(*OLCIndex).Root()}
	for len(level) > 0 {
		var next []core.PageID
		for _, id := range level {
			n, err := db.pinPage(nil, st, id, false)
			if err != nil {
				t.Fatal(err)
			}
			if n.leaf() {
				leaves = append(leaves, id)
			} else {
				inner = append(inner, id)
				next = append(next, n.child0())
				for i := 0; i < n.count(); i++ {
					next = append(next, n.intChild(i))
				}
			}
			n.unpin()
		}
		level = next
	}
	return inner, leaves
}

// routeOf is the copy a descent would route through for page id now, or
// nil.
func routeOf(db *DB, id core.PageID) *buffer.Route {
	if fr := db.pool.Peek(id); fr != nil {
		return fr.RouteFor(id)
	}
	return nil
}

// lookupAll requires every key of keys to map to the RID insertKeys gave
// it, reporting the first that does not.
func lookupAll(t *testing.T, ix Index, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		if rid, ok, err := ix.Lookup(nil, k); err != nil || !ok || rid.Page != core.PageID(k) {
			t.Errorf("lookup %d = %v, found %v, %v", k, rid, ok, err)
			return
		}
	}
}

// lookupAllWithin is lookupAll on another goroutine, failing the test if
// it has not finished in ten seconds: a descent blocked on a latch, or
// restarting for good over a copy it should not have used, never does.
func lookupAllWithin(t *testing.T, ix Index, keys []uint64, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		lookupAll(t, ix, keys)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: lookups did not finish", what)
	}
}

func insertKeys(t *testing.T, ix Index, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k)}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
}

// shuffledKeys returns from, from+step, … below to, shuffled by seed.
func shuffledKeys(from, to, step uint64, seed int64) []uint64 {
	var keys []uint64
	for k := from; k < to; k += step {
		keys = append(keys, k)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// A warm lookup routes through every internal node by its decoded copy
// and latches only the leaf: with a writer queued on the root's latch —
// which blocks every new shared latch there — lookups still finish. Only
// internal nodes get a copy; the root's exclusive latch, though its
// holder changes nothing, drops it, and the next lookup builds another.
func TestOLCWarmLookupLatchesOnlyTheLeaf(t *testing.T) {
	r, ix := newIndexRig(t, 512)
	keys := shuffledKeys(1, 2001, 1, 1)
	insertKeys(t, ix, keys)
	lookupAll(t, ix, keys)
	inner, leaves := olcNodes(t, r.db, ix)
	if len(inner) < 3 {
		t.Fatalf("tree has %d internal nodes, want >= 3", len(inner))
	}
	for _, id := range inner {
		if routeOf(r.db, id) == nil {
			t.Errorf("internal node %d has no copy after a lookup through it", id)
		}
	}
	for _, id := range leaves {
		if routeOf(r.db, id) != nil {
			t.Errorf("leaf %d got a copy", id)
		}
	}

	root := ix.(*OLCIndex).Root()
	pinned, err := r.db.pin(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	fr := pinned.fr
	fr.RLatch()
	queued := make(chan struct{})
	go func() {
		fr.Latch()
		fr.Unlatch()
		close(queued)
	}()
	for fr.TryRLatch() {
		fr.RUnlatch()
		runtime.Gosched()
	}
	lookupAllWithin(t, ix, keys, "a writer queued on the root's latch")
	fr.RUnlatch()
	<-queued
	pinned.unpin()
	if routeOf(r.db, root) != nil {
		t.Error("the root's copy survived an exclusive latch")
	}
	lookupAll(t, ix, keys[:1])
	if routeOf(r.db, root) == nil {
		t.Error("a lookup after the exclusive latch built no new copy of the root")
	}
}

// A copy decoded before a node changed is never routed through: inserts
// split leaves and internal nodes under copies built by earlier lookups,
// the old copies are put back on their frames as a descent that lost a
// race would publish them, and every key is still found.
func TestOLCStaleCopyAfterSplit(t *testing.T) {
	r, ix := newIndexRig(t, 512)
	even := shuffledKeys(2, 4001, 2, 2)
	insertKeys(t, ix, even)
	lookupAll(t, ix, even)
	inner, _ := olcNodes(t, r.db, ix)
	old := map[core.PageID]*buffer.Route{}
	for _, id := range inner {
		old[id] = routeOf(r.db, id)
	}
	insertKeys(t, ix, shuffledKeys(1, 4001, 2, 3))
	stale := 0
	for id, rt := range old {
		fr := r.db.pool.Peek(id)
		if fr == nil {
			t.Fatalf("internal node %d left a 512-frame pool", id)
		}
		if fr.Version() != rt.Ver {
			stale++
		}
		fr.SetRoute(rt)
	}
	if stale == 0 {
		t.Fatal("no internal node changed: the inserts split nothing above the leaves")
	}
	lookupAllWithin(t, ix, shuffledKeys(1, 4001, 1, 4), "stale copies on the frames")
}

// TestOLCDescentStress races lookups that route through decoded copies
// against one writer that makes them stale, in a pool so small that
// internal nodes are evicted and reloaded under the readers. The readers
// look up keys present before they started; the writer inserts keys
// between them and keys above them, so leaves and internal nodes split
// and the root grows. Every lookup must find its key, and restarts stay
// a small share of the operations. `make race-regress` repeats it under
// -race.
func TestOLCDescentStress(t *testing.T) {
	const frames, readers = 24, 3
	r, ix := newIndexRig(t, frames)
	old := shuffledKeys(3, 1800, 3, 5)
	insertKeys(t, ix, old)
	inner, _ := olcNodes(t, r.db, ix)
	height := treeHeight(t, r.db, ix)
	writes := append(shuffledKeys(4, 1800, 3, 6), shuffledKeys(1800, 6000, 1, 7)...)
	rand.New(rand.NewSource(8)).Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })

	var stop atomic.Bool
	var innerAbsent, lookups atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; !stop.Load(); i++ {
				k := old[rng.Intn(len(old))]
				rid, ok, err := ix.Lookup(nil, k)
				if err != nil || !ok || rid.Page != core.PageID(k) {
					t.Errorf("lookup %d during the inserts = %v, found %v, %v", k, rid, ok, err)
					return
				}
				lookups.Add(1)
				if id := inner[i%len(inner)]; r.db.pool.Peek(id) == nil {
					innerAbsent.Add(1)
				}
			}
		}(g)
	}
	for _, k := range writes {
		if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k)}); err != nil {
			t.Errorf("insert %d: %v", k, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	lookupAll(t, ix, old)
	lookupAll(t, ix, writes)

	if innerAbsent.Load() == 0 {
		t.Errorf("no internal node was ever out of the %d-frame pool: the test does not evict them", frames)
	}
	if h := treeHeight(t, r.db, ix); h <= height {
		t.Errorf("the tree stayed %d levels high: the root never split", h)
	}
	st := ix.Stats()
	ops := st.Lookups + st.Inserts
	t.Logf("%d lookups during %d inserts, %d restarts, %d latch waits, height %d → %d, internal nodes absent %d times",
		lookups.Load(), len(writes), st.Restarts, st.LatchWaits, height, treeHeight(t, r.db, ix), innerAbsent.Load())
	if st.Restarts > ops/10 {
		t.Errorf("%d restarts in %d operations", st.Restarts, ops)
	}
}
