package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// TestFullRegionFailsTheInsert: a page counts against its region's
// logical capacity from the moment the engine creates it, not from its
// first flush. So the insert that needs one page more than the region
// holds fails with noftl.ErrRegionFull, and everything committed before
// it stays readable, flushes, and survives a crash — the region does not
// take a page it cannot write.
func TestFullRegionFailsTheInsert(t *testing.T) {
	db := openRig(t, flash.Geometry{Chips: 2, BlocksPerChip: 8, PagesPerBlock: 8, PageSize: 512, Cell: flash.SLC},
		Options{BufferFrames: 16, LogCapacity: 1 << 20},
		noftl.RegionConfig{Name: "small", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3), OverProvision: 0.25})
	defer db.Close()
	region := db.Device().Region("small")
	tb, err := db.CreateTable("t", "small")
	if err != nil {
		t.Fatal(err)
	}

	rows := make(map[core.RID][]byte)
	for i := 0; ; i++ {
		if i > 100*region.LogicalCapacity() {
			t.Fatalf("%d rows fit a region of %d pages", i, region.LogicalCapacity())
		}
		v := []byte(fmt.Sprintf("row %05d %0100d", i, i))
		tx := mustBegin(db, nil)
		rid, err := tb.Insert(tx, v)
		if err != nil {
			if !errors.Is(err, noftl.ErrRegionFull) {
				t.Fatalf("insert %d: %v, want an error wrapping noftl.ErrRegionFull", i, err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("abort of the refused insert: %v", err)
			}
			break
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		rows[rid] = v
	}
	if tb.Pages() != region.LogicalCapacity() {
		t.Errorf("the table holds %d pages, the region %d", tb.Pages(), region.LogicalCapacity())
	}

	check := func(when string) {
		t.Helper()
		got := scanAll(t, tb)
		if len(got) != len(rows) {
			t.Fatalf("%s: %d rows scan, want %d", when, len(got), len(rows))
		}
		for rid, v := range rows {
			if !bytes.Equal(got[rid], v) {
				t.Fatalf("%s: row %v = %q, want %q", when, rid, got[rid], v)
			}
		}
	}
	check("after the refused insert")
	if err := db.FlushAll(nil); err != nil {
		t.Fatalf("FlushAll on a full region: %v", err)
	}
	if got := region.MappedPages(); got != region.LogicalCapacity() {
		t.Errorf("after FlushAll the region maps %d pages, want all %d", got, region.LogicalCapacity())
	}
	check("after FlushAll")
	if _, err := crash(db); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	check("after a crash and Recover")
}
