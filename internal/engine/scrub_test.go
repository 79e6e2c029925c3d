package engine

import (
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// TestScrubRepairsRetentionErrors drives the full Correct-and-Refresh
// path: charge leaks in the stored page are detected via the sectioned
// ECC and repaired in place by an ISPP re-program.
func TestScrubRepairsRetentionErrors(t *testing.T) {
	db, _, err := Open(Spec{
		Geometry: flash.Geometry{Chips: 1, BlocksPerChip: 32, PagesPerBlock: 8, PageSize: 512, Cell: flash.SLC},
		Regions:  []noftl.RegionConfig{{Name: "main", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3)}},
		Options:  Options{BufferFrames: 8, UseECC: true, DirtyThreshold: 2.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	arr := db.Device().Array()
	tbl, _ := db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 8)
	tx := mustBegin(db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 0xAABBCCDD)
	rid, err := tbl.Insert(tx, tup)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	db.FlushAll(nil)
	db.Pool().Drop(rid.Page)

	// Leak one bit of stored charge on the physical page.
	st := db.Store("main")
	ppn, ok := st.Region().PPNOf(rid.Page)
	if !ok {
		t.Fatal("page unmapped")
	}
	if n, err := arr.InjectLeak(ppn, 1); err != nil || n != 1 {
		t.Fatalf("InjectLeak = (%d, %v)", n, err)
	}

	// Scrub detects and repairs it in place (no relocation, no erase).
	erasesBefore := arr.Stats().Erases
	corrected, err := st.Scrub(nil, rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 1 {
		t.Errorf("corrected = %d, want 1", corrected)
	}
	if p2, _ := st.Region().PPNOf(rid.Page); p2 != ppn {
		t.Error("scrub relocated the page")
	}
	if arr.Stats().Erases != erasesBefore {
		t.Error("scrub caused an erase")
	}
	if arr.Stats().Refreshes != 1 {
		t.Errorf("Refreshes = %d", arr.Stats().Refreshes)
	}
	// A second scrub finds a clean page and skips the re-program.
	corrected, err = st.Scrub(nil, rid.Page)
	if err != nil || corrected != 0 {
		t.Errorf("second scrub = (%d, %v)", corrected, err)
	}
	if arr.Stats().Refreshes != 1 {
		t.Error("clean scrub still re-programmed")
	}
	// And the data is intact end to end.
	got, err := tbl.Read(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sch.GetUint(got, 0) != 0xAABBCCDD {
		t.Errorf("value = %#x", sch.GetUint(got, 0))
	}
}

// TestScrubRequiresECC guards the precondition.
func TestScrubRequiresECC(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 8, false)
	tbl, _ := r.db.CreateTable("t", "main")
	tx := mustBegin(r.db, nil)
	rid, _ := tbl.Insert(tx, make([]byte, 16))
	tx.Commit()
	r.db.FlushAll(nil)
	if _, err := r.db.Store("main").Scrub(nil, rid.Page); err == nil {
		t.Error("scrub without ECC accepted")
	}
}
