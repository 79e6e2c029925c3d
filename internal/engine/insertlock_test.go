package engine

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// gatedStore holds every Flush of one page until the gate opens, and says
// on entered when the first such Flush has begun.
type gatedStore struct {
	buffer.Store
	page    core.PageID
	gate    chan struct{}
	entered chan struct{}
	once    *sync.Once
}

func (s gatedStore) Flush(w *sim.Worker, fr *buffer.Frame) error {
	if fr.ID == s.page {
		s.once.Do(func() { close(s.entered) })
		<-s.gate
	}
	return s.Store.Flush(w, fr)
}

// An inserter whose Unpin runs a cleaner pass does not hold the table
// mutex across it: while that pass is stuck in a Flush of another table's
// page, a second inserter into the same table completes. When the mutex
// was held across the Unpin, the second inserter waited for the flush.
func TestInsertReleasesTableMutexBeforeUnpin(t *testing.T) {
	db := newRigWithOptions(t, rigGeometry(), Options{BufferFrames: 16, DirtyThreshold: 0.1})
	tbl, err := db.CreateTable("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	other, err := db.CreateTable("u", "r2")
	if err != nil {
		t.Fatal(err)
	}
	seedTuples(t, db, tbl, 1, 't')
	held := seedTuples(t, db, other, 1, 'u')
	if err := db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	store := gatedStore{page: held[0].Page, gate: make(chan struct{}), entered: make(chan struct{}), once: new(sync.Once)}
	db.lockState()
	db.wrapStore = func(st buffer.Store) buffer.Store { store.Store = st; return store }
	pool, err := db.newPool(db.opts.BufferFrames)
	db.pool = pool
	db.unlockState()
	if err != nil {
		t.Fatal(err)
	}
	// One dirty frame of 16 stays under the 10 % threshold; the second,
	// made by the first insert below, crosses it.
	seedTuples(t, db, other, 1, 'u')

	first := make(chan error, 1)
	go func() {
		tx := mustBegin(db, nil)
		if _, err := tbl.Insert(tx, []byte("first inserter")); err != nil {
			first <- err
			return
		}
		first <- tx.Commit()
	}()
	select {
	case <-store.entered:
	case err := <-first:
		t.Fatalf("the first insert ran no cleaner pass into the gated flush (err %v)", err)
	}
	second := make(chan error, 1)
	go func() {
		tx := mustBegin(db, nil)
		if _, err := tbl.Insert(tx, []byte("second inserter")); err != nil {
			second <- err
			return
		}
		second <- tx.Commit()
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a second inserter waited on the table while the first one's cleaner pass flushed")
	}
	close(store.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		<-second
	}
}

// Two handles change one page in one order and give it back in the
// other: A changes row 0 at LSN a, B changes row 1 at a later LSN and
// releases the page first, making it dirty; A's Unpin comes last. Once
// both transactions have committed, a checkpoint may cut the log only up
// to a, the earliest change flash lacks, and a crash then loses neither.
// When the dirty-page table kept the LSN of the Unpin that made the
// frame dirty, the cut passed a and the restart lost A's change.
func TestCheckpointKeepsEarliestUnflushedChange(t *testing.T) {
	db := newRigWithOptions(t, rigGeometry(), Options{BufferFrames: 64, DirtyThreshold: 2.0})
	tbl, err := db.CreateTable("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	rids := seedTuples(t, db, tbl, 2, 't')
	if rids[0].Page != rids[1].Page {
		t.Fatalf("seed rows on pages %d and %d, want one page", rids[0].Page, rids[1].Page)
	}
	if err := db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	update := func(tx *Tx, pg *pageRef, rid core.RID, val string) core.LSN {
		t.Helper()
		old, err := pg.ReadTuple(int(rid.Slot))
		if err != nil {
			t.Fatal(err)
		}
		before := append([]byte(nil), old...)
		after := bytes.Repeat([]byte(val), len(before))[:len(before)]
		if err := pg.Update(int(rid.Slot), after); err != nil {
			t.Fatal(err)
		}
		lsn := tx.logUpdate(rid.Page, wal.OpUpdate, int(rid.Slot), 0, before, after)
		pg.SetLSN(lsn)
		return lsn
	}
	txA, txB := mustBegin(db, nil), mustBegin(db, nil)
	a, err := db.pinPage(nil, tbl.st, rids[0].Page, true)
	if err != nil {
		t.Fatal(err)
	}
	lsnA := update(txA, &a, rids[0], "A")
	a.unlatch() // A keeps its pin, as between Unlatch and Unpin in unpinDirty
	b, err := db.pinPage(nil, tbl.st, rids[1].Page, true)
	if err != nil {
		t.Fatal(err)
	}
	lsnB := update(txB, &b, rids[1], "B")
	if err := b.unpinDirty(lsnB); err != nil {
		t.Fatal(err)
	}
	if err := db.pool.Unpin(nil, a.fr, true, lsnA); err != nil {
		t.Fatal(err)
	}
	if got := db.pool.DirtyPages()[rids[0].Page]; got != lsnA {
		t.Errorf("dirty-page table: recLSN %d, want A's %d (B's is %d)", got, lsnA, lsnB)
	}
	for _, tx := range []*Tx{txA, txB} {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if tail := db.WAL().Tail(); tail > lsnA {
		t.Errorf("the checkpoint cut the log at %d, past A's unflushed change at %d", tail, lsnA)
	}
	if _, err := crash(db); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte("AB") {
		got, err := tbl.Read(nil, rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Errorf("after the restart row %d reads %q, want %c's update", i, got, want)
		}
	}
}
