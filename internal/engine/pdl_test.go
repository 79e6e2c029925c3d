package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// newPDLRig builds a DB whose "main" region runs the PDL storage scheme
// (no IPA layout: PDL regions write raw page images and append
// differentials to dedicated log blocks).
func newPDLRig(t *testing.T, frames int) *testRig {
	t.Helper()
	return newCellRig(t, CellPDL, false, frames)
}

// TestPDLEngineRoundTrip drives the full flush path through the PDL
// scheme: small updates become differential appends, reads merge them
// back, and the values survive eviction.
func TestPDLEngineRoundTrip(t *testing.T) {
	// 4 frames against a multi-page table: reads must fetch (and merge)
	// from flash rather than hitting resident frames.
	r := newPDLRig(t, 4)
	tbl, err := r.db.CreateTable("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := NewSchema(8, 120)
	tx := mustBegin(r.db, nil)
	var rids []core.RID
	for i := 0; i < 20; i++ {
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.db.FlushAll(nil)

	want := map[core.RID]uint64{}
	for round := 0; round < 10; round++ {
		tx := mustBegin(r.db, nil)
		for i, rid := range rids {
			cur, err := tbl.Read(nil, rid)
			if err != nil {
				t.Fatal(err)
			}
			v := uint64(round*100 + i)
			sch.SetUint(cur, 1, v)
			if err := tbl.Update(tx, rid, cur); err != nil {
				t.Fatal(err)
			}
			want[rid] = v
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		r.db.FlushAll(nil)
	}
	st := r.db.Store("main").Stats()
	if st.Scheme.Storage != noftl.StoragePDL {
		t.Fatalf("scheme = %v", st.Scheme.Storage)
	}
	if st.Scheme.PDL.Appends == 0 {
		t.Error("no PDL appends recorded")
	}
	for rid, v := range want {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		if g := sch.GetUint(got, 1); g != v {
			t.Errorf("row %v = %d, want %d", rid, g, v)
		}
	}
	if r.db.Store("main").Stats().Scheme.PDL.Applies == 0 {
		t.Error("no PDL record applications on read")
	}
}

// TestPDLRecoverMapping restarts the device from its flash image alone:
// the physical scan must skip PDL log blocks, the DiffLog must rebuild
// its in-memory index from the on-flash records, and merged reads must
// return the last flushed values.
func TestPDLRecoverMapping(t *testing.T) {
	r := newPDLRig(t, 8)
	tbl, err := r.db.CreateTable("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := NewSchema(8, 8)
	tx := mustBegin(r.db, nil)
	var rids []core.RID
	for i := 0; i < 12; i++ {
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	tx.Commit()
	r.db.FlushAll(nil)
	want := map[core.RID]uint64{}
	for round := 0; round < 4; round++ {
		tx := mustBegin(r.db, nil)
		for i, rid := range rids {
			cur, err := tbl.Read(nil, rid)
			if err != nil {
				t.Fatal(err)
			}
			v := uint64(1000*round + i)
			sch.SetUint(cur, 1, v)
			if err := tbl.Update(tx, rid, cur); err != nil {
				t.Fatal(err)
			}
			want[rid] = v
		}
		tx.Commit()
		r.db.FlushAll(nil)
	}
	if r.db.Store("main").Stats().Scheme.PDL.Appends == 0 {
		t.Fatal("setup produced no PDL appends")
	}

	// Restart: drop the buffer pool and all in-memory mapping state.
	rep, err := crash(r.db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MappedPages == 0 {
		t.Fatal("the restart mapped no pages")
	}
	for rid, v := range want {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatalf("read %v: %v", rid, err)
		}
		if g := sch.GetUint(got, 1); g != v {
			t.Errorf("row %v = %d, want %d", rid, g, v)
		}
	}
}

// TestPDLCrashConsistencyFuzz is the crash-recovery fuzz of
// TestCrashConsistencyFuzz run over a PDL region, with the mapping (and
// the differential log) rebuilt from flash between crash and redo each
// round: merge replay must lose no acked commit.
func TestPDLCrashConsistencyFuzz(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPDLCrashFuzz(t, seed)
		})
	}
}

func runPDLCrashFuzz(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newPDLRig(t, 24)
	tbl, err := r.db.CreateTable("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := NewSchema(8, 8)

	committed := map[core.RID]uint64{}
	tx := mustBegin(r.db, nil)
	var rids []core.RID
	for i := 0; i < 30; i++ {
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		committed[rid] = 0
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.db.FlushAll(nil)

	spilled := false // a log block held records on more than one page
	for round := 0; round < 6; round++ {
		for i := 0; i < 30; i++ {
			tx := mustBegin(r.db, nil)
			mods := map[core.RID]uint64{}
			nOps := 1 + rng.Intn(4)
			conflicted := false
			for j := 0; j < nOps; j++ {
				rid := rids[rng.Intn(len(rids))]
				cur, err := tbl.Read(nil, rid)
				if err != nil {
					t.Fatal(err)
				}
				nv := rng.Uint64() % 1_000_000
				sch.SetUint(cur, 1, nv)
				if err := tbl.Update(tx, rid, cur); err != nil {
					if errors.Is(err, ErrLockConflict) {
						conflicted = true
						break
					}
					t.Fatal(err)
				}
				mods[rid] = nv
			}
			if conflicted {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			switch rng.Intn(4) {
			case 0: // loser: left open across the crash
			case 1:
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			default:
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for rid, v := range mods {
					committed[rid] = v
				}
			}
			// Steal a few of the oldest dirty pages after each
			// transaction, so records pile up in the open log block.
			if _, err := r.db.Pool().FlushOldest(nil, rng.Intn(8)); err != nil {
				t.Fatal(err)
			}
		}
		// Steal a random subset of dirty pages (PDL appends and
		// out-of-place fallbacks) before the crash.
		if rng.Intn(2) == 0 {
			if _, err := r.db.Pool().FlushOldest(nil, rng.Intn(16)); err != nil {
				t.Fatal(err)
			}
		}
		if logPages(r.db) > r.db.Store("main").Stats().Scheme.PDL.LogBlocks {
			spilled = true
		}
		// CRASH, rebuild the mapping + differential log from flash, redo.
		if _, err := crash(r.db); err != nil {
			t.Fatal(err)
		}
		for _, rid := range rids {
			got, err := tbl.Read(nil, rid)
			if err != nil {
				t.Fatalf("round %d: read %v: %v", round, rid, err)
			}
			if v := sch.GetUint(got, 1); v != committed[rid] {
				t.Fatalf("round %d: row %v = %d, want %d", round, rid, v, committed[rid])
			}
		}
	}
	// The rebuilds must have crossed both log boundaries: a block whose
	// records ran onto a second page, and a log block merged away.
	if !spilled {
		t.Error("no log block held records on more than one page before a crash")
	}
	if r.db.Store("main").Stats().Scheme.PDL.Merges == 0 {
		t.Error("no log block was reclaimed")
	}
}

// logPages counts the flash pages holding differential records: in a
// PDL region only log pages take appends.
func logPages(db *DB) int {
	arr, n := db.Device().Array(), 0
	for p := range arr.Geometry().TotalPages() {
		if arr.Appends(flash.PPN(p)) > 0 {
			n++
		}
	}
	return n
}
