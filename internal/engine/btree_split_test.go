package engine

import (
	"math/rand"
	"sync"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
)

// newSplitRig is an index on a region large enough for a 50k-key tree of
// 2 KiB nodes (113 entries a leaf).
func newSplitRig(t *testing.T) (*DB, Index) {
	t.Helper()
	g := flash.Geometry{Chips: 4, BlocksPerChip: 64, PagesPerBlock: 16, PageSize: 2048, OOBSize: 64, Cell: flash.SLC}
	db := newRigWithOptions(t, g, Options{PageSize: 2048, BufferFrames: 256, DirtyThreshold: 2.0})
	ix, err := db.CreateIndex("ix", "r1")
	if err != nil {
		t.Fatal(err)
	}
	return db, ix
}

// leafFill walks the leaf chain from the leftmost leaf and returns the
// mean fraction of a leaf's capacity in use, the number of keys met and
// whether they came in ascending order.
func leafFill(t *testing.T, db *DB, ix Index) (fill float64, keys int, ordered bool) {
	t.Helper()
	st := db.Store("r1")
	id := ix.(interface{ Root() core.PageID }).Root()
	var leaves, capacity int
	last, ordered := uint64(0), true
	for id != core.InvalidPageID {
		n, err := db.pinPage(nil, st, id, false)
		if err != nil {
			t.Fatalf("pin node %d: %v", id, err)
		}
		if !n.leaf() {
			id = n.child0()
			n.unpin()
			continue
		}
		for i := 0; i < n.count(); i++ {
			if k := n.leafKey(i); k <= last {
				ordered = false
			} else {
				last = k
			}
		}
		leaves++
		keys += n.count()
		capacity = (n.Layout().DeltaAreaStart() - nodeBodyOff) / leafEntrySize
		id = n.NextPage()
		n.unpin()
	}
	return float64(keys) / float64(leaves*capacity), keys, ordered
}

func loadKeys(t *testing.T, ix Index, keys []int) {
	t.Helper()
	for _, k := range keys {
		if err := ix.Insert(nil, uint64(k)+1, core.RID{Page: core.PageID(k + 1), Slot: 1}); err != nil {
			t.Fatalf("insert %d: %v", k+1, err)
		}
	}
}

// TestAscendingLoadFillsLeaves: a load in key order leaves the tree's
// leaves full — the split of the last leaf moves nothing — where a load
// in shuffled order splits leaves in half and settles near 70 % full.
func TestAscendingLoadFillsLeaves(t *testing.T) {
	const n = 50000
	ascending := make([]int, n)
	for i := range ascending {
		ascending[i] = i
	}
	shuffled := rand.New(rand.NewSource(3)).Perm(n)
	fills := make(map[string]float64)
	for name, keys := range map[string][]int{"ascending": ascending, "shuffled": shuffled} {
		db, ix := newSplitRig(t)
		loadKeys(t, ix, keys)
		fill, met, ordered := leafFill(t, db, ix)
		if met != n || !ordered {
			t.Fatalf("%s: leaf chain holds %d keys (ordered=%v), want %d in order", name, met, ordered, n)
		}
		next := uint64(1)
		if err := ix.Range(nil, 0, 1<<63, func(k uint64, rid core.RID) bool {
			if k != next || rid.Page != core.PageID(k) {
				t.Fatalf("%s: Range met key %d → %v, want key %d", name, k, rid, next)
			}
			next++
			return true
		}); err != nil || next != n+1 {
			t.Fatalf("%s: Range ended at key %d: %v", name, next, err)
		}
		fills[name] = fill
		t.Logf("%s: mean leaf fill %.3f", name, fill)
	}
	if f := fills["ascending"]; f < 0.99 {
		t.Errorf("after an ascending load: mean leaf fill %.3f, want >= 0.99", f)
	}
	if f := fills["shuffled"]; f < 0.68 || f > 0.72 {
		t.Errorf("after a shuffled load: mean leaf fill %.3f, want 0.70 within 0.02", f)
	}
}

// TestConcurrentAscendingInsertsLoseNoKey: four inserters, each ascending
// through its own residue class, all landing on the last leaf and racing
// to split it. Run under -race by the gate.
func TestConcurrentAscendingInsertsLoseNoKey(t *testing.T) {
	const workers, perWorker = 4, 5000
	db, ix := newSplitRig(t)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := uint64(i*workers + g + 1)
				if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k), Slot: 1}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fill, met, ordered := leafFill(t, db, ix)
	if met != workers*perWorker || !ordered {
		t.Fatalf("leaf chain holds %d keys (ordered=%v), want %d in order", met, ordered, workers*perWorker)
	}
	t.Logf("mean leaf fill %.3f", fill)
	for k := uint64(1); k <= workers*perWorker; k++ {
		if rid, ok, err := ix.Lookup(nil, k); err != nil || !ok || rid.Page != core.PageID(k) {
			t.Fatalf("lookup %d = %v, %v, %v", k, rid, ok, err)
		}
	}
}
