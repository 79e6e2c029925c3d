package engine

import (
	"bytes"
	"errors"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// testRig assembles a small SLC device, one region and a DB.
type testRig struct {
	dev *noftl.Device
	db  *DB
}

func newRig(t *testing.T, mode noftl.IPAMode, scheme core.Scheme, frames int, useECC bool) *testRig {
	t.Helper()
	return newRigOptions(t, mode, scheme, Options{
		PageSize: 512, BufferFrames: frames, UseECC: useECC, DirtyThreshold: 2.0,
	})
}

// newRigOptions is newRig with caller-chosen engine options.
func newRigOptions(t *testing.T, mode noftl.IPAMode, scheme core.Scheme, opts Options) *testRig {
	t.Helper()
	g := flash.Geometry{
		Chips: 2, BlocksPerChip: 32, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 32, Cell: flash.SLC,
	}
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "main", Mode: mode, Scheme: scheme, BlocksPerChip: 32, OverProvision: 0.2,
	}); err != nil {
		t.Fatal(err)
	}
	db, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{dev: dev, db: db}
}

func TestInsertReadUpdateDelete(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, err := r.db.CreateTable("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(r.db, nil)
	rid, err := tbl.Insert(tx, []byte("hello world tuple"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Read(nil, rid)
	if err != nil || string(got) != "hello world tuple" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	tx2 := mustBegin(r.db, nil)
	if err := tbl.Update(tx2, rid, []byte("HELLO world tuple")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(tx2, rid); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Read(nil, rid); !errors.Is(err, ErrNoTuple) {
		t.Errorf("read deleted: %v", err)
	}
	if _, err := r.db.CreateTable("t", "main"); !errors.Is(err, ErrTableExists) {
		t.Errorf("dup table: %v", err)
	}
	if _, err := r.db.Table("zzz"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
}

func TestSmallUpdateBecomesDeltaWrite(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 8, 8)

	tx := mustBegin(r.db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 1)
	sch.SetUint(tup, 1, 100)
	rid, err := tbl.Insert(tx, tup)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if err := r.db.FlushAll(nil); err != nil { // first flush: out-of-place
		t.Fatal(err)
	}
	st := r.db.Store("main")
	if st.Stats().FlushesOOP == 0 {
		t.Fatal("no out-of-place flush for new page")
	}

	// Small numeric update: balance += 5 changes 1 body byte.
	tx2 := mustBegin(r.db, nil)
	cur, _ := tbl.Read(nil, rid)
	sch.AddUint(cur, 1, 5)
	if err := tbl.Update(tx2, rid, cur); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if err := r.db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if st.Stats().FlushesDelta != 1 {
		t.Fatalf("FlushesDelta = %d, want 1 (stats %+v)", st.Stats().FlushesDelta, st.Stats())
	}
	if f := st.Region().Stats().DeltaWrites; f != 1 {
		t.Fatalf("region DeltaWrites = %d", f)
	}
	// The physical page did NOT move.
	// Re-read after dropping the buffer: delta must be applied on fetch.
	if err := r.db.Pool().Drop(rid.Page); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Read(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sch.GetUint(got, 1) != 105 {
		t.Errorf("balance = %d, want 105", sch.GetUint(got, 1))
	}
	if st.Stats().DeltaApply == 0 {
		t.Error("fetch did not report delta application")
	}
}

func TestDeltaBudgetExhaustionFallsBackOOP(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 8)
	tx := mustBegin(r.db, nil)
	rid, _ := tbl.Insert(tx, sch.New())
	tx.Commit()
	r.db.FlushAll(nil)
	st := r.db.Store("main")

	// N=2 appends fit; the third small update flush must go out-of-place.
	for i := 1; i <= 3; i++ {
		tx := mustBegin(r.db, nil)
		cur, _ := tbl.Read(nil, rid)
		sch.AddUint(cur, 1, 1)
		if err := tbl.Update(tx, rid, cur); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		if err := r.db.FlushAll(nil); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.FlushesDelta != 2 {
		t.Errorf("FlushesDelta = %d, want 2", s.FlushesDelta)
	}
	if s.FlushesOOP != 2 { // initial + overflow
		t.Errorf("FlushesOOP = %d, want 2", s.FlushesOOP)
	}
	// After the out-of-place write the budget is reset: next small update
	// is a delta again.
	tx2 := mustBegin(r.db, nil)
	cur, _ := tbl.Read(nil, rid)
	sch.AddUint(cur, 1, 1)
	tbl.Update(tx2, rid, cur)
	tx2.Commit()
	r.db.FlushAll(nil)
	if st.Stats().FlushesDelta != 3 {
		t.Errorf("post-reset FlushesDelta = %d, want 3", st.Stats().FlushesDelta)
	}
}

func TestLargeUpdateGoesOutOfPlace(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	tx := mustBegin(r.db, nil)
	rid, _ := tbl.Insert(tx, bytes.Repeat([]byte{1}, 64))
	tx.Commit()
	r.db.FlushAll(nil)

	tx2 := mustBegin(r.db, nil)
	if err := tbl.Update(tx2, rid, bytes.Repeat([]byte{2}, 64)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	r.db.FlushAll(nil)
	st := r.db.Store("main")
	if st.Stats().FlushesDelta != 0 {
		t.Errorf("64-byte change served as delta with M=3")
	}
	if st.Stats().FlushesOOP != 2 {
		t.Errorf("FlushesOOP = %d", st.Stats().FlushesOOP)
	}
	got, _ := tbl.Read(nil, rid)
	if !bytes.Equal(got, bytes.Repeat([]byte{2}, 64)) {
		t.Error("large update lost")
	}
}

func TestDisabledIPAAlwaysOOP(t *testing.T) {
	r := newRig(t, noftl.ModeNone, core.Scheme{}, 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	tx := mustBegin(r.db, nil)
	rid, _ := tbl.Insert(tx, sch.New())
	tx.Commit()
	r.db.FlushAll(nil)
	for i := 0; i < 3; i++ {
		tx := mustBegin(r.db, nil)
		cur, _ := tbl.Read(nil, rid)
		sch.AddUint(cur, 0, 1)
		tbl.Update(tx, rid, cur)
		tx.Commit()
		r.db.FlushAll(nil)
	}
	st := r.db.Store("main")
	if st.Stats().FlushesDelta != 0 {
		t.Error("delta writes on [0×0] baseline")
	}
	if st.Stats().FlushesOOP != 4 {
		t.Errorf("FlushesOOP = %d, want 4", st.Stats().FlushesOOP)
	}
}

// TestOneByteUpdateByCell flushes one one-byte field update in each
// region cell: the [2×4] region appends one delta-record, the PDL region
// appends one differential to its log blocks (both count as a delta
// flush and a delta write), and the [0×0] region rewrites the page.
func TestOneByteUpdateByCell(t *testing.T) {
	for _, cell := range RegionCells {
		t.Run(cell.Name, func(t *testing.T) {
			r := newCellRig(t, cell, false, 16)
			tbl, err := r.db.CreateTable("t", "main")
			if err != nil {
				t.Fatal(err)
			}
			tx := mustBegin(r.db, nil)
			rid, err := tbl.Insert(tx, make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			r.db.FlushAll(nil)
			st := r.db.Store("main")
			before := st.Stats()
			tx = mustBegin(r.db, nil)
			if err := tbl.UpdateField(tx, rid, 0, []byte{9}); err != nil {
				t.Fatal(err)
			}
			tx.Commit()
			r.db.FlushAll(nil)
			after := st.Stats()
			delta := after.FlushesDelta - before.FlushesDelta
			oop := after.FlushesOOP - before.FlushesOOP
			appends := after.Scheme.PDL.Appends - before.Scheme.PDL.Appends
			deltaWrites := st.Region().Stats().DeltaWrites
			want := map[string][4]uint64{ // delta flushes, oop flushes, PDL appends, delta writes
				"oop": {0, 1, 0, 0},
				"ipa": {1, 0, 0, 1},
				"pdl": {1, 0, 1, 1},
			}[cell.Name]
			if got := [4]uint64{delta, oop, appends, deltaWrites}; got != want {
				t.Errorf("delta flushes, oop flushes, PDL appends, delta writes = %v, want %v", got, want)
			}
		})
	}
}

func TestAbortRollsBack(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	tx := mustBegin(r.db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 42)
	rid, _ := tbl.Insert(tx, tup)
	tx.Commit()

	tx2 := mustBegin(r.db, nil)
	cur, _ := tbl.Read(nil, rid)
	sch.SetUint(cur, 0, 99)
	tbl.Update(tx2, rid, cur)
	rid2, _ := tbl.Insert(tx2, sch.New())
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Read(nil, rid)
	if sch.GetUint(got, 0) != 42 {
		t.Errorf("after abort value = %d, want 42", sch.GetUint(got, 0))
	}
	if _, err := tbl.Read(nil, rid2); !errors.Is(err, ErrNoTuple) {
		t.Errorf("aborted insert visible: %v", err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrTxClosed) {
		t.Errorf("commit after abort: %v", err)
	}
}

func TestRollbackAcrossEvictionWithDeltas(t *testing.T) {
	// The paper's Sec 6.2 scenario: a dirty page with uncommitted changes
	// is evicted (changes land as a delta-record on flash), then the
	// transaction aborts. Undo must operate on the reconstructed page.
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	tx := mustBegin(r.db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 42)
	rid, _ := tbl.Insert(tx, tup)
	tx.Commit()
	r.db.FlushAll(nil)

	tx2 := mustBegin(r.db, nil)
	cur, _ := tbl.Read(nil, rid)
	sch.SetUint(cur, 0, 43) // 1-byte change
	tbl.Update(tx2, rid, cur)
	r.db.FlushAll(nil) // steal: uncommitted delta goes to flash
	st := r.db.Store("main")
	if st.Stats().FlushesDelta == 0 {
		t.Fatal("uncommitted change did not flush as delta")
	}
	r.db.Pool().Drop(rid.Page) // make sure undo re-fetches from flash
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Read(nil, rid)
	if sch.GetUint(got, 0) != 42 {
		t.Errorf("after abort value = %d, want 42", sch.GetUint(got, 0))
	}
}

func TestUpdateFieldSmallDiff(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(4, 4, 20)
	tx := mustBegin(r.db, nil)
	rid, _ := tbl.Insert(tx, sch.New())
	tx.Commit()
	r.db.FlushAll(nil)

	tx2 := mustBegin(r.db, nil)
	if err := tbl.UpdateField(tx2, rid, sch.Offset(1), []byte{7}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	r.db.FlushAll(nil)
	st := r.db.Store("main")
	// Exactly one byte of net data changed.
	if got := st.Stats().NetBytes.Quantile(1.0); got != 1 {
		t.Errorf("net update size = %d bytes, want 1", got)
	}
	if st.Stats().FlushesDelta != 1 {
		t.Errorf("FlushesDelta = %d", st.Stats().FlushesDelta)
	}
	// Out-of-range field update is rejected.
	tx3 := mustBegin(r.db, nil)
	if err := tbl.UpdateField(tx3, rid, 100, []byte{1}); err == nil {
		t.Error("out-of-range field accepted")
	}
	tx3.Abort()
}

func TestEvictionsUnderSmallPool(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 4, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 8)
	var rids []core.RID
	// More pages than frames.
	for i := 0; i < 40; i++ {
		tx := mustBegin(r.db, nil)
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(tx, bytes.Repeat(tup, 10)) // 160B tuples, ~2/page
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		tx.Commit()
	}
	// Update all, read all back.
	for i, rid := range rids {
		tx := mustBegin(r.db, nil)
		cur, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		sch.AddUint(cur[:16], 1, uint64(i))
		if err := tbl.Update(tx, rid, cur); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	for i, rid := range rids {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatalf("read-back %d: %v", i, err)
		}
		if sch.GetUint(got[:16], 0) != uint64(i) {
			t.Fatalf("tuple %d corrupted", i)
		}
	}
	if r.db.Pool().Stats().Evictions == 0 {
		t.Error("no evictions with 4-frame pool over 40 tuples")
	}
}

func TestECCEndToEnd(t *testing.T) {
	// Enable both ECC and read bit-error injection: every read flips a
	// bit, the sectioned ECC must correct all of them.
	g := flash.Geometry{
		Chips: 1, BlocksPerChip: 32, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 32, Cell: flash.SLC,
	}
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true,
		MaxAppends: 8, BitErrorRate: 1.0, Seed: 11,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "main", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 32, OverProvision: 0.2,
	}); err != nil {
		t.Fatal(err)
	}
	db, err := New(dev, Options{PageSize: 512, BufferFrames: 4, UseECC: true, DirtyThreshold: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	var rids []core.RID
	for i := 0; i < 10; i++ {
		tx := mustBegin(db, nil)
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i+1000))
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		tx.Commit()
	}
	db.FlushAll(nil)
	// Small updates to create delta-records under bit errors.
	for _, rid := range rids {
		tx := mustBegin(db, nil)
		cur, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		sch.AddUint(cur, 0, 1)
		if err := tbl.Update(tx, rid, cur); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	db.FlushAll(nil)
	for i, rid := range rids {
		db.Pool().Drop(rid.Page)
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatalf("read %d under bit errors: %v", i, err)
		}
		if sch.GetUint(got, 0) != uint64(i+1001) {
			t.Fatalf("tuple %d = %d, want %d", i, sch.GetUint(got, 0), i+1001)
		}
	}
	st := db.Store("main")
	if st.Stats().ECCCorrected == 0 {
		t.Error("ECC never corrected anything despite 100% bit-error rate")
	}
}

func TestSchemaCodec(t *testing.T) {
	sch, err := NewSchema(4, 8, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Size() != 24 || sch.Fields() != 4 {
		t.Errorf("size/fields = %d/%d", sch.Size(), sch.Fields())
	}
	if sch.Offset(2) != 12 || sch.Width(2) != 2 {
		t.Error("offset/width wrong")
	}
	tup := sch.New()
	sch.SetUint(tup, 0, 0xDEADBEEF)
	if sch.GetUint(tup, 0) != 0xDEADBEEF {
		t.Error("uint round trip failed")
	}
	sch.SetUint(tup, 2, 0x12345) // truncated to 2 bytes
	if sch.GetUint(tup, 2) != 0x2345 {
		t.Errorf("truncated = %#x", sch.GetUint(tup, 2))
	}
	sch.AddUint(tup, 0, 1)
	if sch.GetUint(tup, 0) != 0xDEADBEF0 {
		t.Error("AddUint failed")
	}
	sch.SetBytes(tup, 3, []byte("hi"))
	if string(sch.GetBytes(tup, 3)[:2]) != "hi" || sch.GetBytes(tup, 3)[2] != 0 {
		t.Error("bytes field wrong")
	}
	if _, err := NewSchema(4, 0); err == nil {
		t.Error("zero-width field accepted")
	}
	// Small increments only change the least-significant byte.
	fresh := sch.New()
	sch.SetUint(fresh, 1, 1000)
	before := append([]byte(nil), fresh...)
	sch.AddUint(fresh, 1, 3)
	diff := 0
	for i := range fresh {
		if fresh[i] != before[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("small increment changed %d bytes, want 1", diff)
	}
}

func TestScan(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 8, false)
	tbl, _ := r.db.CreateTable("t", "main")
	want := map[string]bool{}
	for i := 0; i < 30; i++ {
		tx := mustBegin(r.db, nil)
		tup := bytes.Repeat([]byte{byte(i + 1)}, 50)
		if _, err := tbl.Insert(tx, tup); err != nil {
			t.Fatal(err)
		}
		want[string(tup)] = true
		tx.Commit()
	}
	seen := 0
	err := tbl.Scan(nil, func(rid core.RID, tup []byte) bool {
		if !want[string(tup)] {
			t.Errorf("unexpected tuple at %v", rid)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 30 {
		t.Errorf("scanned %d tuples, want 30", seen)
	}
	// Early stop.
	n := 0
	tbl.Scan(nil, func(core.RID, []byte) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop scan visited %d", n)
	}
}
