package engine

import (
	"errors"
	"strings"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

func newFigure3Rig(t *testing.T, cell flash.CellType) *DB {
	t.Helper()
	g := rigGeometry()
	g.Cell = cell
	return openRig(t, g, Options{BufferFrames: 16, DirtyThreshold: 2.0})
}

// TestDDLFigure3 lays out the paper's Figure 3 (CREATE REGION rgIPA
// with IPA_MODE=pSLC and SCHEME=2x4, a table and its index placed in
// it) as RegionConfig and CreateTable/CreateIndex calls, adapted to the
// simulated device, and checks a one-byte update becomes a delta flush.
func TestDDLFigure3(t *testing.T) {
	db := newFigure3Rig(t, flash.MLC)
	// Figure 3's MAX_SIZE=512K: 512K / (4 chips × 8 pages × 512B) = 32
	// blocks per chip.
	if _, err := db.Device().CreateRegion(noftl.RegionConfig{
		Name: "rgIPA", Mode: noftl.ModePSLC, Scheme: core.NewScheme(2, 4), BlocksPerChip: 32,
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", "rgIPA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("T_pk", "rgIPA"); err != nil {
		t.Fatal(err)
	}
	region := db.Device().Region("rgIPA")
	if region.Mode() != noftl.ModePSLC {
		t.Errorf("mode = %v", region.Mode())
	}
	if s := region.Scheme(); s.N != 2 || s.M != 4 {
		t.Errorf("scheme = %v", s)
	}
	// The table is usable: insert + small update lands as an append.
	tx := mustBegin(db, nil)
	rid, err := tbl.Insert(tx, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	db.FlushAll(nil)
	tx2 := mustBegin(db, nil)
	if err := tbl.UpdateField(tx2, rid, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	db.FlushAll(nil)
	if n := db.Store("rgIPA").Stats().FlushesDelta; n != 1 {
		t.Errorf("Figure 3 region: %d delta flushes, want 1", n)
	}
}

// TestDDLErrors checks that the layouts Figure 3's DDL must refuse are
// refused when given as RegionConfig values, and that objects cannot be
// placed in a region that does not exist.
func TestDDLErrors(t *testing.T) {
	db := newFigure3Rig(t, flash.SLC)
	bad := []struct {
		rc   noftl.RegionConfig
		frag string
	}{
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 8, Mode: noftl.ModePSLC}, "requires MLC flash"},
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 8, Mode: noftl.ModeOddMLC}, "requires MLC flash"},
		{noftl.RegionConfig{Name: "r", Scheme: core.NewScheme(2, 4)}, "needs BlocksPerChip > 0"},
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 8, OverProvision: 1.5}, "no logical capacity"},
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 8, Storage: noftl.Storage(9)}, "unknown storage"},
		// PDL regions write raw page images; an IPA delta layout or mode
		// would be re-applied over merged bases.
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 8, Storage: noftl.StoragePDL, Scheme: core.NewScheme(2, 4)}, "requires a disabled Scheme"},
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 8, Storage: noftl.StoragePDL, Mode: noftl.ModeSLC}, "requires Mode none"},
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 8, Scheme: core.Scheme{N: 2, M: -4}}, "negative parameter"},
		{noftl.RegionConfig{Name: "r", BlocksPerChip: 65}, "not enough unassigned blocks"},
	}
	for _, c := range bad {
		if _, err := db.Device().CreateRegion(c.rc); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%+v: CreateRegion = %v, want an error containing %q", c.rc, err, c.frag)
		}
	}
	if db.Device().Region("r") != nil {
		t.Error("a refused region was created")
	}
	if _, err := db.CreateTable("t", "missing"); !errors.Is(err, ErrNoRegion) {
		t.Errorf("table in a missing region: %v", err)
	}
	if _, err := db.CreateIndex("i", "missing"); !errors.Is(err, ErrNoRegion) {
		t.Errorf("index in a missing region: %v", err)
	}
	if _, err := db.Device().CreateRegion(noftl.RegionConfig{Name: "rOK", BlocksPerChip: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Device().CreateRegion(noftl.RegionConfig{Name: "rOK", BlocksPerChip: 4}); !errors.Is(err, noftl.ErrRegionExists) {
		t.Errorf("duplicate region: %v", err)
	}
	if _, err := db.CreateTable("t", "rOK"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", "rOK"); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate table: %v", err)
	}
}
