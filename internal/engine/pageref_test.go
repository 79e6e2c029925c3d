package engine

import (
	"errors"
	"testing"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/noftl"
	"ipa/internal/page"
)

// requireAllReleased checks what a pageRef promises after an operation
// returned, successfully or not: no frame latch is still held, and no
// resident page is pinned — the pool flushes and then drops every one of
// them, both of which it refuses for a pinned page.
func requireAllReleased(t *testing.T, db *DB) {
	t.Helper()
	var resident []core.PageID
	for id := core.PageID(1); id <= core.PageID(db.nextPage.Load()); id++ {
		if db.Pool().Peek(id) == nil {
			continue
		}
		resident = append(resident, id)
		n, err := db.pin(nil, id)
		if err != nil {
			t.Fatalf("pin page %d: %v", id, err)
		}
		held := !n.tryLatch(true)
		n.unpin()
		if held {
			t.Fatalf("page %d: a frame latch is still held", id)
		}
	}
	if err := db.FlushAll(nil); err != nil {
		t.Fatalf("flush: %v (is ErrPinned: %v)", err, errors.Is(err, buffer.ErrPinned))
	}
	for _, id := range resident {
		if err := db.Pool().Drop(id); err != nil {
			t.Fatalf("drop page %d: %v", id, err)
		}
	}
}

// TestErrorPathsReleaseThePage runs every operation that can fail after
// it has pinned and latched a page, and requires the failure to give
// both back: the page drops from the pool, and a second exclusive
// operation on it completes.
func TestErrorPathsReleaseThePage(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 32, false)
	db := r.db
	tbl, err := db.CreateTable("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	rids := patchRows(t, db, tbl, 12) // 24-byte rows, one 512-byte page
	live, gone := rids[0], rids[1]
	if live.Page != gone.Page {
		t.Fatalf("rows on pages %d and %d, want one page", live.Page, gone.Page)
	}
	tx := mustBegin(db, nil)
	if err := tbl.Delete(tx, gone); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	heapOps := []struct {
		name string
		op   func(tx *Tx) error
		want error // nil: any error
	}{
		{"Update of a deleted slot", func(tx *Tx) error { return tbl.Update(tx, gone, make([]byte, 24)) }, ErrNoTuple},
		{"Delete of a deleted slot", func(tx *Tx) error { return tbl.Delete(tx, gone) }, ErrNoTuple},
		{"UpdateField of a deleted slot", func(tx *Tx) error { return tbl.UpdateField(tx, gone, 8, []byte{1}) }, ErrNoTuple},
		{"AddField of a deleted slot", func(tx *Tx) error { return tbl.AddField(tx, gone, 8, 1) }, ErrNoTuple},
		{"UpdateField outside the tuple", func(tx *Tx) error { return tbl.UpdateField(tx, live, 20, make([]byte, 8)) }, nil},
		{"AddField outside the tuple", func(tx *Tx) error { return tbl.AddField(tx, live, 17, 1) }, nil},
		{"Update that no longer fits", func(tx *Tx) error { return tbl.Update(tx, live, make([]byte, 300)) }, page.ErrPageFull},
		{"Insert larger than a page", func(tx *Tx) error { _, err := tbl.Insert(tx, make([]byte, 600)); return err }, page.ErrTupleLarge},
	}
	for _, c := range heapOps {
		ok := t.Run(c.name, func(t *testing.T) {
			tx := mustBegin(db, nil)
			err := c.op(tx)
			if err == nil || c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			requireAllReleased(t, db)
			if err := tbl.AddField(tx, live, 8, 1); err != nil {
				t.Fatalf("AddField on the same page afterwards: %v", err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			requireAllReleased(t, db)
		})
		if !ok {
			return // a page left latched would hang whatever runs next
		}
	}

	runOnTree(t, func(t *testing.T) {
		ix, err := db.CreateIndex("ix", "main")
		if err != nil {
			t.Fatal(err)
		}
		// Enough keys for internal nodes above the leaves: the descents'
		// error paths are under test too.
		const keys = 400
		for k := uint64(1); k <= keys; k++ {
			if err := ix.Insert(nil, 2*k, core.RID{Page: core.PageID(k)}); err != nil {
				t.Fatal(err)
			}
		}
		requireAllReleased(t, db)
		if err := ix.Insert(nil, 2*7, core.RID{}); !errors.Is(err, ErrKeyExists) {
			t.Fatalf("duplicate insert: %v, want ErrKeyExists", err)
		}
		requireAllReleased(t, db)
		if err := ix.Update(nil, 2*7+1, core.RID{}); err == nil {
			t.Fatal("update of a missing key succeeded")
		}
		requireAllReleased(t, db)
		if ok, err := ix.Delete(nil, 2*7+1); ok || err != nil {
			t.Fatalf("delete of a missing key: %v, %v", ok, err)
		}
		requireAllReleased(t, db)
		// The leaf the failures visited takes exclusive operations again.
		if err := ix.Insert(nil, 2*7+1, core.RID{Page: 99}); err != nil {
			t.Fatal(err)
		}
		if err := ix.Update(nil, 2*7, core.RID{Page: 98}); err != nil {
			t.Fatal(err)
		}
		if rid, ok, err := ix.Lookup(nil, 2*7+1); err != nil || !ok || rid.Page != 99 {
			t.Fatalf("lookup after the failures: %v %v %v", rid, ok, err)
		}
		requireAllReleased(t, db)
	})
}

// treeHeight counts the levels from the root down the leftmost path.
func treeHeight(t *testing.T, db *DB, ix Index) int {
	t.Helper()
	st := db.Store("main")
	id := ix.(interface{ Root() core.PageID }).Root()
	for h := 1; ; h++ {
		n, err := db.pinPage(nil, st, id, false)
		if err != nil {
			t.Fatal(err)
		}
		leaf := n.leaf()
		id = n.child0()
		n.unpin()
		if leaf {
			return h
		}
	}
}

// TestIndexLookupAllocs holds an index point read on a resident tree to
// zero allocations: a node is a pageRef by value, not an allocation per
// level of the descent, and the tree's decoded
// copies of internal nodes are built by the first lookups, not by warm
// ones.
func TestIndexLookupAllocs(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		r, ix := newIndexRig(t, 512)
		const keys = 2000
		for k := uint64(1); k <= keys; k++ {
			if err := ix.Insert(nil, k, core.RID{Page: core.PageID(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if h := treeHeight(t, r.db, ix); h < 3 {
			t.Fatalf("tree of %d keys is %d levels high, want >= 3", keys, h)
		}
		for k := uint64(1); k <= keys; k++ {
			ix.Lookup(nil, k)
		}
		k := uint64(0)
		allocs := testing.AllocsPerRun(2000, func() {
			k = k%keys + 1
			if _, ok, err := ix.Lookup(nil, k); err != nil || !ok {
				t.Fatalf("lookup %d: %v %v", k, ok, err)
			}
		})
		t.Logf("Lookup: %.3f allocs/op", allocs)
		if allocs != 0 {
			t.Errorf("Lookup allocates %.2f per call, want 0", allocs)
		}
	})
}
