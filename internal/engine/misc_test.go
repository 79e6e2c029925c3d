package engine

import (
	"errors"
	"sync"
	"testing"

	"ipa/internal/core"
	"ipa/internal/noftl"
)

func TestAccessors(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	if tbl.Name() != "t" {
		t.Errorf("Name = %q", tbl.Name())
	}
	if tbl.st.layout.PageSize != 512 {
		t.Error("table store's layout wrong")
	}
	if r.db.Device() != r.dev {
		t.Error("Device accessor wrong")
	}
	if _, err := r.db.attachRegion("main"); err != nil {
		t.Errorf("attachRegion existing: %v", err)
	}
	if _, err := r.db.attachRegion("missing"); err == nil {
		t.Error("attachRegion missing region accepted")
	}
	tx := mustBegin(r.db, nil)
	if tx.id == 0 {
		t.Error("tx id zero")
	}
	tbl.Insert(tx, make([]byte, 16))
	tx.Commit()
	if tbl.Pages() != 1 {
		t.Errorf("Pages = %d", tbl.Pages())
	}
	ix, _ := r.db.CreateIndex("i", "main")
	if ix.Name() != "i" {
		t.Errorf("index Name = %q", ix.Name())
	}
}

func TestResizePoolPreservesData(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 32, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	var rids []core.RID
	for i := 0; i < 20; i++ {
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
	if err := r.db.ResizePool(nil, 4); err != nil {
		t.Fatal(err)
	}
	if r.db.Pool().Size() != 4 {
		t.Errorf("pool size = %d", r.db.Pool().Size())
	}
	for i, rid := range rids {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatalf("read %d after resize: %v", i, err)
		}
		if sch.GetUint(got, 0) != uint64(i) {
			t.Fatalf("row %d corrupted", i)
		}
	}
}

func TestLockConflictAndRelease(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	setup := mustBegin(r.db, nil)
	rid, _ := tbl.Insert(setup, sch.New())
	setup.Commit()

	tx1 := mustBegin(r.db, nil)
	tx2 := mustBegin(r.db, nil)
	if err := tbl.UpdateField(tx1, rid, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// tx2 conflicts while tx1 is open.
	if err := tbl.UpdateField(tx2, rid, 0, []byte{2}); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting update: %v", err)
	}
	if err := tbl.Delete(tx2, rid); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting delete: %v", err)
	}
	// tx1 can re-lock its own tuple freely.
	if err := tbl.UpdateField(tx1, rid, 0, []byte{3}); err != nil {
		t.Fatal(err)
	}
	// Commit releases the lock; tx2 proceeds.
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UpdateField(tx2, rid, 0, []byte{4}); err != nil {
		t.Fatalf("update after release: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	// Abort also releases.
	tx3 := mustBegin(r.db, nil)
	if err := tbl.UpdateField(tx3, rid, 0, []byte{5}); err != nil {
		t.Fatalf("update after abort release: %v", err)
	}
	tx3.Commit()
	got, _ := tbl.Read(nil, rid)
	if got[0] != 5 {
		t.Errorf("final value = %d", got[0])
	}
}

// TestConcurrentGoroutines hammers the engine from real goroutines:
// the engine latch must serialise safely (run with -race).
func TestConcurrentGoroutines(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 32, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 8)
	const rows = 64
	var rids [rows]core.RID
	setup := mustBegin(r.db, nil)
	for i := 0; i < rows; i++ {
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(setup, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	setup.Commit()
	r.db.FlushAll(nil)

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Partitioned rows: no lock conflicts by construction.
				rid := rids[(g*8+i%8)%rows]
				tx := mustBegin(r.db, nil)
				cur, err := tbl.Read(nil, rid)
				if err != nil {
					errCh <- err
					return
				}
				sch.AddUint(cur, 1, 1)
				if err := tbl.Update(tx, rid, cur); err != nil {
					if errors.Is(err, ErrLockConflict) {
						tx.Abort()
						continue
					}
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Data readable and consistent.
	total := uint64(0)
	for _, rid := range rids {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		total += sch.GetUint(got, 1)
	}
	if total == 0 {
		t.Error("no updates landed")
	}
}
