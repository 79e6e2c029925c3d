package engine

import (
	"strings"
	"testing"

	"ipa/internal/flash"
	"ipa/internal/noftl"
)

func newDDLRig(t *testing.T, cell flash.CellType) *DB {
	t.Helper()
	timing := flash.SLCTiming()
	if cell == flash.MLC {
		timing = flash.MLCTiming()
	}
	g := flash.Geometry{
		Chips: 4, BlocksPerChip: 64, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 32, Cell: cell,
	}
	arr, err := flash.New(flash.Config{Geometry: g, Timing: timing, StrictProgramOrder: true, MaxAppends: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(noftl.Open(arr), Options{PageSize: 512, BufferFrames: 16, DirtyThreshold: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDDLFigure3 executes the paper's Figure 3 statements (adapted to
// the simulated device) end to end.
func TestDDLFigure3(t *testing.T) {
	db := newDDLRig(t, flash.MLC)
	stmts := []string{
		"CREATE REGION rgIPA (MAX_CHIPS=4, MAX_SIZE=512K, IPA_MODE=pSLC, SCHEME=2x4);",
		"CREATE TABLESPACE tsIPA (REGION=rgIPA)",
		"CREATE TABLE T (TABLESPACE=tsIPA)",
		"CREATE INDEX T_pk (TABLESPACE=tsIPA)",
	}
	for _, s := range stmts {
		if err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	region := db.Device().Region("rgIPA")
	if region == nil {
		t.Fatal("region not created")
	}
	if region.Mode() != noftl.ModePSLC {
		t.Errorf("mode = %v", region.Mode())
	}
	if s := region.Scheme(); s.N != 2 || s.M != 4 {
		t.Errorf("scheme = %v", s)
	}
	// 512K / (4 chips × 8 pages × 512B) = 32 blocks per chip.
	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
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
	if db.Store("rgIPA").Stats().FlushesDelta != 1 {
		t.Error("DDL-created region did not serve an in-place append")
	}
}

func TestDDLOptions(t *testing.T) {
	db := newDDLRig(t, flash.SLC)
	if err := db.Exec("CREATE REGION r1 (BLOCKS_PER_CHIP=8, IPA_MODE=SLC, SCHEME=3x10x8, OVERPROVISION=20)"); err != nil {
		t.Fatal(err)
	}
	r := db.Device().Region("r1")
	if s := r.Scheme(); s.N != 3 || s.M != 10 || s.V != 8 {
		t.Errorf("scheme = %+v", s)
	}
	// REGION= shortcut on CREATE TABLE.
	if err := db.Exec("CREATE TABLE t1 (REGION=r1)"); err != nil {
		t.Fatal(err)
	}
	// IPA off via mode none.
	if err := db.Exec("CREATE REGION r2 (BLOCKS_PER_CHIP=8, IPA_MODE=none)"); err != nil {
		t.Fatal(err)
	}
	if db.Device().Region("r2").Mode() != noftl.ModeNone {
		t.Error("mode none not honoured")
	}
}

// TestDDLStorageOptions covers the STORAGE / GC_VICTIM surface of
// CREATE REGION.
func TestDDLStorageOptions(t *testing.T) {
	db := newDDLRig(t, flash.SLC)
	if err := db.Exec("CREATE REGION rPDL (BLOCKS_PER_CHIP=16, STORAGE=pdl, GC_VICTIM=cost-benefit)"); err != nil {
		t.Fatal(err)
	}
	r := db.Device().Region("rPDL")
	if r.Storage() != noftl.StoragePDL {
		t.Errorf("storage = %v, want pdl", r.Storage())
	}
	if r.GCVictim() != noftl.CostBenefitVictim {
		t.Errorf("gc victim = %v, want cost-benefit", r.GCVictim())
	}
	if got := db.Store("rPDL").Stats().Scheme.Storage; got != noftl.StoragePDL {
		t.Errorf("store storage = %v, want pdl", got)
	}
	// Explicit STORAGE=ipa with an IPA layout is the default path.
	if err := db.Exec("CREATE REGION rIPA (BLOCKS_PER_CHIP=8, STORAGE=ipa, IPA_MODE=slc, SCHEME=2x4)"); err != nil {
		t.Fatal(err)
	}
	if got := db.Store("rIPA").Stats().Scheme.Storage; got != noftl.StorageIPA {
		t.Errorf("store storage = %v, want ipa", got)
	}
	// A region created without SCHEME is the out-of-place baseline.
	if err := db.Exec("CREATE REGION rOOP (BLOCKS_PER_CHIP=8)"); err != nil {
		t.Fatal(err)
	}
	// Both take a one-byte update end to end: a PDL append, and an
	// out-of-place rewrite.
	updateOne := func(region string) {
		t.Helper()
		if err := db.Exec("CREATE TABLE t" + region + " (REGION=" + region + ")"); err != nil {
			t.Fatal(err)
		}
		tbl, err := db.Table("t" + region)
		if err != nil {
			t.Fatal(err)
		}
		tx := mustBegin(db, nil)
		rid, err := tbl.Insert(tx, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		db.FlushAll(nil)
		tx2 := mustBegin(db, nil)
		if err := tbl.UpdateField(tx2, rid, 0, []byte{9}); err != nil {
			t.Fatal(err)
		}
		tx2.Commit()
		db.FlushAll(nil)
	}
	updateOne("rPDL")
	if got := db.Store("rPDL").Stats().Scheme.PDL.Appends; got != 1 {
		t.Errorf("pdl appends = %d, want 1", got)
	}
	oopBefore := db.Store("rOOP").Stats().FlushesOOP
	updateOne("rOOP")
	st := db.Store("rOOP")
	if ss := st.Stats(); ss.FlushesDelta != 0 || ss.FlushesOOP < oopBefore+2 {
		t.Errorf("region without SCHEME: %d delta and %d out-of-place flushes, want 0 and ≥ 2 (load, update)",
			ss.FlushesDelta, ss.FlushesOOP-oopBefore)
	}
	if dw := st.Region().Stats().DeltaWrites; dw != 0 {
		t.Errorf("region without SCHEME: %d delta writes, want 0", dw)
	}
}

func TestDDLErrors(t *testing.T) {
	db := newDDLRig(t, flash.SLC)
	bad := []string{
		"DROP TABLE x",
		"CREATE",
		"CREATE WIDGET w (A=1)",
		"CREATE REGION r (IPA_MODE=warp)",
		"CREATE REGION r (SCHEME=banana)",
		"CREATE REGION r (SCHEME=2x4)", // missing size
		"CREATE REGION r (MAX_SIZE=zero)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8, OVERPROVISION=150)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8, MAX_CHIPS=x)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8",
		"CREATE REGION r (BLOCKS_PER_CHIP)",
		"CREATE TABLESPACE ts ()",
		"CREATE TABLESPACE ts (REGION=missing)",
		"CREATE TABLE t ()",
		"CREATE TABLE t (TABLESPACE=missing)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8, IPA_MODE=pSLC)", // pSLC on SLC device
		"CREATE REGION r (BLOCKS_PER_CHIP=8, STORAGE=log-structured)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8, GC_POLICY=foreground)", // no such key any more
		"CREATE REGION r (BLOCKS_PER_CHIP=8, GC=background)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8, GC_VICTIM=oldest)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8, STROAGE=pdl)", // typo must not be ignored
		"CREATE TABLESPACE ts (REGION=rOK, COMPRESSION=on)",
		"CREATE TABLE t (REGION=rOK, PARTITIONS=4)",
		// PDL regions write raw page images; an IPA delta layout or mode
		// would be re-applied over merged bases.
		"CREATE REGION r (BLOCKS_PER_CHIP=8, STORAGE=pdl, SCHEME=2x4)",
		"CREATE REGION r (BLOCKS_PER_CHIP=8, STORAGE=pdl, IPA_MODE=slc)",
		// Out of place is a region without SCHEME, not a storage scheme.
		"CREATE REGION r (BLOCKS_PER_CHIP=8, STORAGE=oop)",
	}
	for _, s := range bad {
		if err := db.Exec(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
	// Every engine-issued DDL error carries the "engine:" prefix (device
	// errors like pSLC-on-SLC come from noftl and are exempt).
	wantPrefix := []struct{ stmt, frag string }{
		{"CREATE REGION r (BLOCKS_PER_CHIP=8, STORAGE=log-structured)", `unknown STORAGE "log-structured"`},
		{"CREATE REGION r (BLOCKS_PER_CHIP=8, STORAGE=oop)", "create the region without SCHEME, which writes every page out of place"},
		{"CREATE REGION r (BLOCKS_PER_CHIP=8, GC_VICTIM=oldest)", `unknown GC_VICTIM "oldest"`},
		{"CREATE REGION r (SCHEME=banana)", `bad SCHEME: core: invalid [N×M] scheme: "banana"`},
		{"CREATE REGION r (BLOCKS_PER_CHIP=8, GC_POLICY=foreground)", "unknown option GC_POLICY in CREATE REGION r"},
		{"CREATE REGION r (BLOCKS_PER_CHIP=8, GC=background)", "unknown option GC in CREATE REGION r"},
		{"CREATE REGION r (BLOCKS_PER_CHIP=8, STROAGE=pdl)", "unknown option STROAGE in CREATE REGION r"},
		{"CREATE REGION r (BLOCKS_PER_CHIP=8, ZZZ=1, AAA=2)", "unknown option AAA in CREATE REGION r"},
		{"CREATE INDEX i (REGION=rOK, UNIQUE=yes)", "unknown option UNIQUE in CREATE INDEX i"},
		// There is one tree, so DDL has no key to choose it.
		{"CREATE INDEX i (REGION=rOK, KIND=olc)", "unknown option KIND in CREATE INDEX i"},
	}
	for _, c := range wantPrefix {
		err := db.Exec(c.stmt)
		if err == nil || !strings.HasPrefix(err.Error(), "engine: ") || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error = %v, want engine: ...%s...", c.stmt, err, c.frag)
		}
	}
	// Duplicate tablespace.
	if err := db.Exec("CREATE REGION rOK (BLOCKS_PER_CHIP=4)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLESPACE ts (REGION=rOK)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLESPACE ts (REGION=rOK)"); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate tablespace: %v", err)
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"512": 512, "4K": 4096, "2M": 2 << 20, "1G": 1 << 30,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = (%d, %v), want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "x", "0M"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) accepted", bad)
		}
	}
}
