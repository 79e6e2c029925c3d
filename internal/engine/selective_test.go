package engine

import (
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// TestSelectiveIPAAcrossRegions exercises the paper's contribution II:
// IPA applied selectively per database object through NoFTL regions. A
// write-hot table lives in a pSLC region with [2×4], a cold table in an
// odd-MLC region with [2×3], and a read-only table in a region with IPA
// off — all on the same MLC device, concurrently.
func TestSelectiveIPAAcrossRegions(t *testing.T) {
	db := openRig(t, flash.Geometry{Chips: 2, BlocksPerChip: 48, PagesPerBlock: 8, PageSize: 512, Cell: flash.MLC},
		Options{BufferFrames: 32, DirtyThreshold: 2.0},
		noftl.RegionConfig{Name: "hot", Mode: noftl.ModePSLC, Scheme: core.NewScheme(2, 4), BlocksPerChip: 16},
		noftl.RegionConfig{Name: "warm", Mode: noftl.ModeOddMLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 16},
		noftl.RegionConfig{Name: "cold", Mode: noftl.ModeNone, BlocksPerChip: 16})
	hot, _ := db.CreateTable("stock", "hot")
	warm, _ := db.CreateTable("customer", "warm")
	cold, _ := db.CreateTable("item", "cold")
	sch, _ := NewSchema(8, 8)

	// Populate all three and flush.
	var hotR, warmR, coldR core.RID
	for _, tc := range []struct {
		tbl *Table
		rid *core.RID
	}{{hot, &hotR}, {warm, &warmR}, {cold, &coldR}} {
		tx := mustBegin(db, nil)
		tup := sch.New()
		sch.SetUint(tup, 0, 7)
		rid, err := tc.tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		*tc.rid = rid
		tx.Commit()
	}
	db.FlushAll(nil)

	// Small updates everywhere.
	update := func(tbl *Table, rid core.RID) {
		t.Helper()
		tx := mustBegin(db, nil)
		cur, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		sch.AddUint(cur, 1, 1)
		if err := tbl.Update(tx, rid, cur); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		db.FlushAll(nil)
	}
	update(hot, hotR)
	update(warm, warmR)
	update(cold, coldR)

	// Hot (pSLC): the update must be an append.
	if n := db.Store("hot").Region().Stats().DeltaWrites; n != 1 {
		t.Errorf("hot DeltaWrites = %d, want 1", n)
	}
	// Cold: never any appends.
	if n := db.Store("cold").Region().Stats().DeltaWrites; n != 0 {
		t.Errorf("cold DeltaWrites = %d, want 0", n)
	}
	// Warm (odd-MLC): append only if the page landed on an LSB page.
	ws := db.Store("warm").Region().Stats()
	if ws.DeltaWrites+ws.OutOfPlaceWrites < 2 {
		t.Errorf("warm writes = %+v", ws)
	}
	// All data still correct.
	for _, tc := range []struct {
		tbl *Table
		rid core.RID
	}{{hot, hotR}, {warm, warmR}, {cold, coldR}} {
		db.Pool().Drop(tc.rid.Page)
		got, err := tc.tbl.Read(nil, tc.rid)
		if err != nil {
			t.Fatal(err)
		}
		if sch.GetUint(got, 1) != 1 {
			t.Errorf("%s value = %d", tc.tbl.Name(), sch.GetUint(got, 1))
		}
	}
}
