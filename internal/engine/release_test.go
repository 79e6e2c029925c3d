package engine

import (
	"encoding/binary"
	"errors"
	"testing"
)

// redraw builds an ended transaction with setup, releases it, and calls
// begin until that draws the released handle again; it returns the
// handle and the id it had before. sync.Pool keeps a put handle on the
// processor that put it (and the race detector drops some at random),
// so a draw can miss it: the miss is aborted and released, and setup
// builds the released state anew.
func redraw(t *testing.T, setup func() *Tx, begin func() (*Tx, error)) (*Tx, uint64) {
	t.Helper()
	for range 100 {
		old := setup()
		oldID := old.id
		if err := old.Release(); err != nil {
			t.Fatal(err)
		}
		tx, err := begin()
		if err != nil {
			t.Fatal(err)
		}
		if tx == old {
			return tx, oldID
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Release(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("100 released handles never came back from the free pool")
	return nil, 0
}

// fresh checks that a drawn handle carries nothing of the transaction
// it served before.
func fresh(t *testing.T, tx *Tx, oldID uint64, readOnly bool) {
	t.Helper()
	if tx.id <= oldID {
		t.Errorf("recycled handle has id %d, the released one had %d", tx.id, oldID)
	}
	if tx.status != txActive || tx.readOnly != readOnly {
		t.Errorf("recycled handle: status %d, readOnly %v; want active, %v", tx.status, tx.readOnly, readOnly)
	}
	if len(tx.held) != 0 || cap(tx.held) != len(tx.heldBuf) || &tx.held[:1][0] != &tx.heldBuf[0] {
		t.Errorf("recycled handle holds %v (cap %d), want empty and backed by heldBuf", tx.held, cap(tx.held))
	}
	if tx.commitLSN != 0 || tx.lockConflict || tx.updates != 0 || tx.word != [8]byte{} {
		t.Errorf("recycled handle keeps commitLSN %d, lockConflict %v, updates %d, word %v",
			tx.commitLSN, tx.lockConflict, tx.updates, tx.word)
	}
	if (tx.snapshot != 0) != readOnly {
		t.Errorf("recycled handle has snapshot LSN %d (read-only %v)", tx.snapshot, readOnly)
	}
}

// A released transaction's handle comes back from Begin and
// BeginSnapshot as a new transaction: a new id, active, no locks, no
// commit LSN, no snapshot pin, no lock-conflict mark. What the old
// transaction did — its MVCC stamps, its abort reason — stays with it.
// An active transaction cannot be released, nor one handle twice.
func TestReleaseRecyclesTx(t *testing.T) {
	r := allocRig(t, 64, true)
	db := r.db
	acct, _ := db.CreateTable("acct", "main")
	rids := patchRows(t, db, acct, 4)
	begin := func() (*Tx, error) { return db.Begin(nil) }
	addCommit := func(tx *Tx, i int) {
		t.Helper()
		if err := acct.AddField(tx, rids[i], 8, 1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("active", func(t *testing.T) {
		tx := mustBegin(db, nil)
		if err := tx.Release(); !errors.Is(err, ErrTxActive) {
			t.Fatalf("Release of an active transaction: %v, want ErrTxActive", err)
		}
		addCommit(tx, 3) // the refused Release left it usable
		if err := tx.Release(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Release(); !errors.Is(err, ErrTxClosed) {
			t.Errorf("second Release of one handle: %v, want ErrTxClosed", err)
		}
	})

	t.Run("committed", func(t *testing.T) {
		before := counter(t, acct, rids[1])
		tx, oldID := redraw(t, func() *Tx {
			tx := mustBegin(db, nil)
			addCommit(tx, 0)
			return tx
		}, begin)
		fresh(t, tx, oldID, false)
		snap, err := db.BeginSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		atSnap := counter(t, acct, rids[0])
		if err := acct.AddField(tx, rids[1], 8, 1); err != nil {
			t.Fatal(err)
		}
		if len(tx.held) != 1 || tx.held[0] != rids[1] {
			t.Errorf("the recycled transaction holds %v, want only %v", tx.held, rids[1])
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// The old commit's stamps stay its own: the snapshot, pinned
		// between the two commits, sees the old one and not the new.
		for i, want := range []uint64{atSnap, before} {
			row, err := acct.ReadSnapshot(snap, rids[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint64(row[8:]); got != want {
				t.Errorf("snapshot read of row %d: %d, want %d", i, got, want)
			}
		}
		if err := snap.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*Tx{tx, snap} {
			if err := h.Release(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("lockConflict", func(t *testing.T) {
		holder := mustBegin(db, nil)
		if err := acct.AddField(holder, rids[2], 8, 1); err != nil {
			t.Fatal(err)
		}
		tx, oldID := redraw(t, func() *Tx {
			tx := mustBegin(db, nil)
			if err := acct.AddField(tx, rids[2], 8, 1); !errors.Is(err, ErrLockConflict) {
				t.Fatalf("AddField on a locked row: %v, want ErrLockConflict", err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			return tx
		}, begin)
		fresh(t, tx, oldID, false)
		lock, explicit := db.abortsLock.Load(), db.abortsExplicit.Load()
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if db.abortsLock.Load() != lock || db.abortsExplicit.Load() != explicit+1 {
			t.Errorf("the recycled transaction's abort counted %d lock-conflict and %d explicit aborts, want 0 and 1",
				db.abortsLock.Load()-lock, db.abortsExplicit.Load()-explicit)
		}
		addCommit(holder, 3)
		for _, h := range []*Tx{tx, holder} {
			if err := h.Release(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		tx, oldID := redraw(t, func() *Tx {
			snap, err := db.BeginSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.Commit(); err != nil {
				t.Fatal(err)
			}
			return snap
		}, begin)
		fresh(t, tx, oldID, false)
		addCommit(tx, 0) // a handle that was read-only writes again
		if err := tx.Release(); err != nil {
			t.Fatal(err)
		}
		snap, oldID := redraw(t, func() *Tx {
			tx := mustBegin(db, nil)
			addCommit(tx, 1)
			return tx
		}, func() (*Tx, error) { return db.BeginSnapshot(nil) })
		fresh(t, snap, oldID, true)
		if err := acct.AddField(snap, rids[0], 8, 1); !errors.Is(err, ErrReadOnlyTx) {
			t.Errorf("a snapshot drawn from a writer's handle wrote: %v", err)
		}
		if err := snap.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}
