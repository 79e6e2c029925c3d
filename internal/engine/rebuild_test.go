package engine

import (
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// TestRecoverMappingAfterPowerLoss: a power cut loses the NoFTL mapping
// entirely (device metadata in DBMS memory, not just DB buffers), and the
// restart rebuilds it by scanning flash: the newest copy of each logical
// page — determined by the reconstructed PageLSN, so delta-records
// participate — must win over stale pre-GC copies.
func TestRecoverMappingAfterPowerLoss(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 8, 104) // ~120B rows: ~3 per 512B page

	// Rows with several overwrite generations so flash holds stale copies.
	var rids []core.RID
	for i := 0; i < 12; i++ {
		tx := mustBegin(r.db, nil)
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		tx.Commit()
	}
	r.db.FlushAll(nil)
	for gen := 1; gen <= 3; gen++ {
		for i, rid := range rids {
			tx := mustBegin(r.db, nil)
			cur, _ := tbl.Read(nil, rid)
			sch.SetUint(cur, 1, uint64(gen*100+i))
			if err := tbl.Update(tx, rid, cur); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			r.db.FlushAll(nil) // some of these land as delta-records
		}
	}
	st := r.db.Store("main")
	if st.Stats().FlushesDelta == 0 {
		t.Fatal("precondition: no delta writes")
	}

	// Snapshot the true mapping; the power cut destroys it and the restart
	// rebuilds it from flash.
	want := map[core.PageID]flash.PPN{}
	for _, rid := range rids {
		ppn, ok := st.Region().PPNOf(rid.Page)
		if !ok {
			t.Fatalf("page %d unmapped", rid.Page)
		}
		want[rid.Page] = ppn
	}
	if err := r.db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if st.Region().MappedPages() != 0 {
		t.Fatal("mapping not wiped")
	}
	rep, err := r.db.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MappedPages < len(want) {
		t.Fatalf("recovered %d pages, want ≥ %d", rep.MappedPages, len(want))
	}
	if len(want) < 4 {
		t.Fatalf("test sizing: rows span only %d pages", len(want))
	}
	for id, ppn := range want {
		got, ok := st.Region().PPNOf(id)
		if !ok {
			t.Fatalf("page %d not recovered", id)
		}
		if got != ppn {
			t.Errorf("page %d recovered at ppn %d, want %d (stale copy won?)", id, got, ppn)
		}
	}
	// All data readable with the final generation's values.
	for i, rid := range rids {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v := sch.GetUint(got, 1); v != uint64(300+i) {
			t.Errorf("row %d = %d, want %d", i, v, 300+i)
		}
	}
	// The region keeps working after adoption: more writes and GC churn.
	for round := 0; round < 3; round++ {
		for i, rid := range rids {
			tx := mustBegin(r.db, nil)
			cur, _ := tbl.Read(nil, rid)
			sch.SetUint(cur, 1, uint64(1000+round*100+i))
			if err := tbl.Update(tx, rid, cur); err != nil {
				t.Fatalf("post-adopt update: %v", err)
			}
			tx.Commit()
			r.db.FlushAll(nil)
		}
	}
	for i, rid := range rids {
		got, _ := tbl.Read(nil, rid)
		if v := sch.GetUint(got, 1); v != uint64(1200+i) {
			t.Errorf("post-adopt row %d = %d", i, v)
		}
	}
}

// TestAdoptValidation rejects foreign pages and over-capacity mappings.
func TestAdoptValidation(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 8, false)
	st, err := r.db.attachRegion("main")
	if err != nil {
		t.Fatal(err)
	}
	huge := flash.PPN(1 << 40)
	if err := st.Region().Adopt(map[core.PageID]flash.PPN{1: huge}); err == nil {
		t.Error("foreign ppn accepted")
	}
}

// TestRecoverMappingLeavesEmptyDeviceEmpty: the rebuild looks at every
// physical page of the region, and on a device nothing was written to it
// must find that out from the page states alone — a scan that read erased
// pages through their bytes would have to bring every block into memory.
func TestRecoverMappingLeavesEmptyDeviceEmpty(t *testing.T) {
	for _, cell := range []RegionCell{CellIPA, CellPDL} {
		r := newCellRig(t, cell, false, 8)
		if _, err := r.db.CreateTable("t", "main"); err != nil {
			t.Fatal(err)
		}
		rep, err := crash(r.db)
		if err != nil || rep.MappedPages != 0 {
			t.Fatalf("%s: the restart of an empty region mapped %d pages, %v", cell.Name, rep.MappedPages, err)
		}
		if got := r.dev.Array().Stats().ResidentBytes; got != 0 {
			t.Errorf("%s: the rebuild left %d bytes of an empty device resident", cell.Name, got)
		}
	}
}
