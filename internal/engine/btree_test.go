package engine

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ipa/internal/core"
	"ipa/internal/noftl"
)

func newIndexRig(t *testing.T, frames int) (*testRig, Index) {
	t.Helper()
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), frames, false)
	ix, err := r.db.CreateIndex("ix", "main")
	if err != nil {
		t.Fatal(err)
	}
	return r, ix
}

// runOnTree runs f as the subtest "olc", after the one tree
// implementation (OLCIndex): the index tests report under the names they
// had when a second tree ran beside it.
func runOnTree(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("olc", f)
}

func TestIndexInsertLookup(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		_, ix := newIndexRig(t, 32)
		for k := uint64(1); k <= 100; k++ {
			if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k), Slot: uint16(k)}); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
		for k := uint64(1); k <= 100; k++ {
			rid, ok, err := ix.Lookup(nil, k)
			if err != nil || !ok {
				t.Fatalf("lookup %d: %v %v", k, ok, err)
			}
			if rid.Page != core.PageID(k) || rid.Slot != uint16(k) {
				t.Fatalf("lookup %d = %v", k, rid)
			}
		}
		if _, ok, _ := ix.Lookup(nil, 9999); ok {
			t.Error("found absent key")
		}
		if err := ix.Insert(nil, 50, core.RID{Page: 1}); !errors.Is(err, ErrKeyExists) {
			t.Errorf("duplicate insert: %v", err)
		}
		st := ix.Stats()
		if st.Inserts != 101 || st.Lookups != 101 {
			t.Errorf("Stats = %+v, want 101 inserts / 101 lookups", st)
		}
	})
}

func TestIndexSplitsGrowTree(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		r, ix := newIndexRig(t, 64)
		rooter := ix.(interface{ Root() core.PageID })
		rootBefore := rooter.Root()
		// 512B pages hold ~21 leaf entries; 2000 keys force multiple levels.
		for k := uint64(1); k <= 2000; k++ {
			if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k), Slot: 1}); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
		if rooter.Root() == rootBefore {
			t.Error("root never split over 2000 keys")
		}
		// Every key still reachable.
		for k := uint64(1); k <= 2000; k += 37 {
			if _, ok, err := ix.Lookup(nil, k); !ok || err != nil {
				t.Fatalf("lookup %d after splits: %v %v", k, ok, err)
			}
		}
		// Index pages flowed through flash.
		if r.db.Store("main").Region().Stats().HostWrites() == 0 {
			t.Error("index pages never reached flash")
		}
	})
}

func TestIndexRandomOrderInsert(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		_, ix := newIndexRig(t, 64)
		rng := rand.New(rand.NewSource(42))
		keys := rng.Perm(3000)
		for _, k := range keys {
			if err := ix.Insert(nil, uint64(k)+1, core.RID{Page: core.PageID(k + 1)}); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
		for _, k := range keys {
			rid, ok, err := ix.Lookup(nil, uint64(k)+1)
			if err != nil || !ok || rid.Page != core.PageID(k+1) {
				t.Fatalf("lookup %d: %v %v %v", k, rid, ok, err)
			}
		}
	})
}

func TestIndexRange(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		_, ix := newIndexRig(t, 64)
		for k := uint64(0); k < 500; k += 2 { // even keys
			if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		var got []uint64
		err := ix.Range(nil, 100, 140, func(k uint64, rid core.RID) bool {
			got = append(got, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126, 128, 130, 132, 134, 136, 138, 140}
		if len(got) != len(want) {
			t.Fatalf("range returned %d keys, want %d: %v", len(got), len(want), got)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Error("range not sorted")
		}
		// Early termination.
		n := 0
		ix.Range(nil, 0, 1000, func(uint64, core.RID) bool { n++; return n < 5 })
		if n != 5 {
			t.Errorf("early stop visited %d", n)
		}
	})
}

func TestIndexUpdateAndDelete(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		_, ix := newIndexRig(t, 32)
		for k := uint64(1); k <= 50; k++ {
			ix.Insert(nil, k, core.RID{Page: core.PageID(k)})
		}
		if err := ix.Update(nil, 25, core.RID{Page: 999}); err != nil {
			t.Fatal(err)
		}
		rid, ok, _ := ix.Lookup(nil, 25)
		if !ok || rid.Page != 999 {
			t.Errorf("after update: %v %v", rid, ok)
		}
		if err := ix.Update(nil, 9999, core.RID{}); err == nil {
			t.Error("update of absent key accepted")
		}
		deleted, err := ix.Delete(nil, 25)
		if err != nil || !deleted {
			t.Fatalf("delete: %v %v", deleted, err)
		}
		if _, ok, _ := ix.Lookup(nil, 25); ok {
			t.Error("deleted key still found")
		}
		deleted, _ = ix.Delete(nil, 25)
		if deleted {
			t.Error("double delete reported success")
		}
	})
}

func TestIndexSurvivesEvictions(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		// An 8-frame pool forces index pages through flash constantly.
		_, ix := newIndexRig(t, 8)
		for k := uint64(1); k <= 1000; k++ {
			if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k)}); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
		for k := uint64(1); k <= 1000; k++ {
			rid, ok, err := ix.Lookup(nil, k)
			if err != nil || !ok || rid.Page != core.PageID(k) {
				t.Fatalf("lookup %d: %v %v %v", k, rid, ok, err)
			}
		}
	})
}

// Property: after any random sequence of inserts and deletes, the index
// agrees with a map reference and Range enumerates keys in sorted order.
func TestPropertyIndexMatchesReference(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 32, false)
			ix, err := r.db.CreateIndex("ix", "main")
			if err != nil {
				return false
			}
			ref := map[uint64]core.PageID{}
			for op := 0; op < 400; op++ {
				k := uint64(rng.Intn(200) + 1)
				switch rng.Intn(3) {
				case 0, 1: // insert
					if _, dup := ref[k]; dup {
						continue
					}
					p := core.PageID(rng.Intn(1000) + 1)
					if err := ix.Insert(nil, k, core.RID{Page: p}); err != nil {
						return false
					}
					ref[k] = p
				case 2: // delete
					deleted, err := ix.Delete(nil, k)
					if err != nil {
						return false
					}
					_, had := ref[k]
					if deleted != had {
						return false
					}
					delete(ref, k)
				}
			}
			// Point lookups agree.
			for k, p := range ref {
				rid, ok, err := ix.Lookup(nil, k)
				if err != nil || !ok || rid.Page != p {
					return false
				}
			}
			// Range enumerates exactly the reference keys, sorted.
			var keys []uint64
			if err := ix.Range(nil, 0, 1<<62, func(k uint64, rid core.RID) bool {
				keys = append(keys, k)
				return true
			}); err != nil {
				return false
			}
			if len(keys) != len(ref) {
				return false
			}
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					return false
				}
			}
			for _, k := range keys {
				if _, ok := ref[k]; !ok {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}
