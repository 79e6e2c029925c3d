package engine

import (
	"bytes"
	"errors"
	"testing"

	"ipa/internal/core"
	"ipa/internal/wal"
)

// newReplRig opens a small two-region DB with replication and MVCC on,
// the shape every cluster member runs with.
func newReplRig(t testing.TB) *DB {
	t.Helper()
	return newRigWithOptions(t, rigGeometry(), Options{
		PageSize: 512, BufferFrames: 64, LogCapacity: 1 << 20,
		MVCC: true, Replicated: true,
	})
}

// shipAll streams every record past the applier's head from src into a,
// in bounded batches, until the follower has caught up.
func shipAll(t *testing.T, src *DB, a *Applier) {
	t.Helper()
	for a.AppliedLSN() < src.WAL().Head() {
		var recs []wal.Record
		_, err := src.WAL().ReadFrom(a.AppliedLSN()+1, 64, 1<<20, func(r wal.Record) { recs = append(recs, r) })
		if err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if len(recs) == 0 {
			t.Fatalf("stream stalled at LSN %d (primary head %d)", a.AppliedLSN(), src.WAL().Head())
		}
		if err := a.Apply(recs); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
}

// scanAll collects a table's visible heap state keyed by RID.
func scanAll(t testing.TB, tb *Table) map[core.RID][]byte {
	t.Helper()
	out := make(map[core.RID][]byte)
	err := tb.Scan(nil, func(rid core.RID, tuple []byte) bool {
		out[rid] = append([]byte(nil), tuple...)
		return true
	})
	if err != nil {
		t.Fatalf("scan %s: %v", tb.Name(), err)
	}
	return out
}

// diffStates fails the test when two table states differ.
func diffStates(t *testing.T, want, got map[core.RID][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("tuple count: primary %d, follower %d", len(want), len(got))
	}
	for rid, wv := range want {
		gv, ok := got[rid]
		if !ok {
			t.Fatalf("follower missing RID %v", rid)
		}
		if !bytes.Equal(wv, gv) {
			t.Fatalf("RID %v: primary %q, follower %q", rid, wv, gv)
		}
	}
}

// TestApplierStreamParity replays a full primary history — DDL,
// inserts, updates, a delete and an abort — through the applier and
// checks LSN parity plus byte-identical table state.
func TestApplierStreamParity(t *testing.T) {
	primary := newReplRig(t)
	defer primary.Close()
	follower := newReplRig(t)
	defer follower.Close()

	a, err := follower.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}

	ptb, err := primary.CreateTable("acct", "r1")
	if err != nil {
		t.Fatal(err)
	}
	var rids []core.RID
	tx := mustBegin(primary, nil)
	for i := 0; i < 8; i++ {
		rid, err := ptb.Insert(tx, []byte{'v', '0', '-', byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = mustBegin(primary, nil)
	if err := ptb.Update(tx, rids[1], []byte("v1-b")); err != nil {
		t.Fatal(err)
	}
	if err := ptb.Delete(tx, rids[2]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// An aborted transaction ships RecAbort + CLRs + RecEnd; the
	// follower must restore the before-image through the CLRs.
	tx = mustBegin(primary, nil)
	if err := ptb.Update(tx, rids[3], []byte("XXXX")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	shipAll(t, primary, a)
	if got, want := a.AppliedLSN(), primary.WAL().Head(); got != want {
		t.Fatalf("applied LSN %d, primary head %d", got, want)
	}
	if got, want := follower.WAL().Head(), primary.WAL().Head(); got != want {
		t.Fatalf("follower log head %d, primary %d (parity broken)", got, want)
	}

	ftb, err := follower.Table("acct")
	if err != nil {
		t.Fatalf("follower table: %v", err)
	}
	diffStates(t, scanAll(t, ptb), scanAll(t, ftb))
	if got := scanAll(t, ftb)[rids[3]]; string(got) != "v0-d" {
		t.Fatalf("aborted update leaked to follower: %q", got)
	}

	// Snapshot reads on the follower see committed state.
	snap, err := follower.BeginSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Abort()
	got, err := ftb.ReadSnapshot(snap, rids[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1-b" {
		t.Fatalf("follower snapshot read: %q, want %q", got, "v1-b")
	}
}

// TestApplierSnapshotJoin primes a fresh follower from a mid-stream
// snapshot captured while a transaction is active, then continues the
// stream: the active transaction's records replay from its RecBegin
// (PrimeLSN = min active firstLSN - 1), with heap applies deduplicated
// by the PageLSN guard but version-chain entries still installed.
func TestApplierSnapshotJoin(t *testing.T) {
	primary := newReplRig(t)
	defer primary.Close()
	follower := newReplRig(t)
	defer follower.Close()

	ptb, err := primary.CreateTable("acct", "r1")
	if err != nil {
		t.Fatal(err)
	}
	var rids []core.RID
	tx := mustBegin(primary, nil)
	for i := 0; i < 5; i++ {
		rid, err := ptb.Insert(tx, []byte{'s', '0', '-', byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	open := mustBegin(primary, nil)
	if err := ptb.Update(open, rids[0], []byte("s1-a")); err != nil {
		t.Fatal(err)
	}

	snap, err := primary.CaptureSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PrimeLSN >= primary.WAL().Head() {
		t.Fatalf("PrimeLSN %d not below head %d despite active tx", snap.PrimeLSN, primary.WAL().Head())
	}

	if err := follower.InstallSnapshot(nil, snap); err != nil {
		t.Fatal(err)
	}
	a, err := follower.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Resync()
	if got := a.AppliedLSN(); got != snap.PrimeLSN {
		t.Fatalf("resynced applier at %d, want PrimeLSN %d", got, snap.PrimeLSN)
	}

	if err := ptb.Update(open, rids[4], []byte("s1-e")); err != nil {
		t.Fatal(err)
	}
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}

	shipAll(t, primary, a)

	ftb, err := follower.Table("acct")
	if err != nil {
		t.Fatalf("follower table: %v", err)
	}
	diffStates(t, scanAll(t, ptb), scanAll(t, ftb))
}

// TestApplierPromote rolls back the dead primary's open transaction on
// promotion and leaves the follower writable as a normal primary.
func TestApplierPromote(t *testing.T) {
	primary := newReplRig(t)
	defer primary.Close()
	follower := newReplRig(t)
	defer follower.Close()

	a, err := follower.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}

	ptb, err := primary.CreateTable("acct", "r1")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(primary, nil)
	rid, err := ptb.Insert(tx, []byte("old!"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The primary "dies" with this transaction open; its update has
	// already shipped.
	loser := mustBegin(primary, nil)
	if err := ptb.Update(loser, rid, []byte("new!")); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, a)

	if err := a.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if follower.WAL().Head() <= primary.WAL().Head() {
		t.Fatalf("promotion appended no rollback records: follower head %d, primary %d",
			follower.WAL().Head(), primary.WAL().Head())
	}

	ftb, err := follower.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ftb.Read(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old!" {
		t.Fatalf("loser transaction survived promotion: %q", got)
	}

	// The promoted node serves writes.
	ntx := mustBegin(follower, nil)
	if err := ftb.Update(ntx, rid, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := ntx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := ftb.Read(nil, rid); string(got) != "next" {
		t.Fatalf("post-promotion write: %q", got)
	}
}

// TestApplierPatchBeforeImages: an OpPatch ships only the bytes it
// changes, so the follower's version store takes the whole before-tuple
// from its own page — as it stands when the record is redone, and
// walked back through the transaction's records when a snapshot-primed
// page already reflects them. Either way a follower snapshot taken while
// the transaction is still open must read the tuple exactly as it was
// before the transaction: two fields of one row patched, one field
// patched twice, a patch on top of a whole-tuple update and under one.
func TestApplierPatchBeforeImages(t *testing.T) {
	for _, join := range []string{"stream", "snapshot"} {
		t.Run(join, func(t *testing.T) {
			primary := newReplRig(t)
			defer primary.Close()
			follower := newReplRig(t)
			defer follower.Close()
			a, err := follower.NewApplier(nil)
			if err != nil {
				t.Fatal(err)
			}

			ptb, err := primary.CreateTable("acct", "r1")
			if err != nil {
				t.Fatal(err)
			}
			rids := patchRows(t, primary, ptb, 4)
			want := scanAll(t, ptb)

			open := mustBegin(primary, nil)
			for _, step := range []func() error{
				func() error { return ptb.AddField(open, rids[0], 8, 5) },                   // two fields
				func() error { return ptb.UpdateField(open, rids[0], 16, []byte("dirty")) }, // of one row
				func() error { return ptb.AddField(open, rids[1], 8, 1) },                   // one field,
				func() error { return ptb.AddField(open, rids[1], 8, 2) },                   // twice
				func() error { return ptb.Update(open, rids[2], []byte("rewritten-whole-and-longer")) },
				func() error { return ptb.UpdateField(open, rids[2], 3, []byte("PATCH")) },
				func() error { return ptb.AddField(open, rids[3], 8, 9) },
				func() error { return ptb.Update(open, rids[3], []byte("patched-then-rewritten")) },
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}

			if join == "snapshot" {
				snap, err := primary.CaptureSnapshot(nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := follower.InstallSnapshot(nil, snap); err != nil {
					t.Fatal(err)
				}
				a.Resync()
			}
			// Records past the capture are redone on the follower either way.
			if err := ptb.UpdateField(open, rids[1], 16, []byte("later")); err != nil {
				t.Fatal(err)
			}
			if err := ptb.AddField(open, rids[0], 0, 1); err != nil {
				t.Fatal(err)
			}
			shipAll(t, primary, a)

			ftb, err := follower.Table("acct")
			if err != nil {
				t.Fatal(err)
			}
			diffStates(t, scanAll(t, ptb), scanAll(t, ftb)) // the heap has the open transaction's bytes
			snap, err := follower.BeginSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Abort()
			got := make(map[core.RID][]byte)
			if err := ftb.ScanSnapshot(snap, core.RID{}, nil, func(rid core.RID, row []byte) bool {
				got[rid] = append([]byte(nil), row...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			diffStates(t, want, got)

			// The primary dies; promotion undoes the patches from the
			// follower's own log.
			if err := a.Promote(); err != nil {
				t.Fatal(err)
			}
			diffStates(t, want, scanAll(t, ftb))
		})
	}
}

// TestWirePageIDsBeyondTheBound: page ids that arrive from another node
// are arbitrary 64-bit values. One beyond core.MaxPageID, or below it but
// far from every id issued so far (each would pin a page-table chunk of
// its own), is refused with an error — by a RecAlloc, by a page
// operation, by a snapshot image — and moves nothing: not the allocator's
// high-water mark, and not the state a refused snapshot would have
// replaced.
func TestWirePageIDsBeyondTheBound(t *testing.T) {
	primary := newReplRig(t)
	defer primary.Close()
	follower := newReplRig(t)
	defer follower.Close()
	ptb, err := primary.CreateTable("acct", "r1")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(primary, nil)
	rid, err := ptb.Insert(tx, []byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	a, err := follower.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, a)
	nextPage := follower.nextPage.Load()

	for _, id := range []core.PageID{1 << 12, 1 << 20, core.MaxPageID,
		core.MaxPageID + 1, 1 << 40, 1 << 63, ^core.PageID(0)} {
		next := a.AppliedLSN() + 1
		err := a.Apply([]wal.Record{{LSN: next, Type: wal.RecAlloc, Meta: encodeAllocMeta(id, 0, "r1")}})
		if !errors.Is(err, core.ErrPageIDRange) {
			t.Errorf("RecAlloc of page %d: %v, want ErrPageIDRange", id, err)
		}
		a.Resync() // the refused record was logged for parity; step over it
		err = a.Apply([]wal.Record{{LSN: a.AppliedLSN() + 1, Type: wal.RecUpdate, TxID: 9,
			Page: id, Op: wal.OpPatch, Before: []byte{1}, After: []byte{2}}})
		if err == nil {
			t.Errorf("page operation on page %d applied", id)
		}
		a.Resync()
		if got := follower.nextPage.Load(); got != nextPage {
			t.Fatalf("page %d moved the allocator from %d to %d", id, nextPage, got)
		}

		snap, err := primary.CaptureSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		snap.Pages[0].ID = id
		if err := follower.InstallSnapshot(nil, snap); !errors.Is(err, core.ErrPageIDRange) {
			t.Errorf("snapshot with page %d: %v, want ErrPageIDRange", id, err)
		}
		if snap, err = primary.CaptureSnapshot(nil); err != nil {
			t.Fatal(err)
		}
		snap.NextPage = uint64(id)
		if err := follower.InstallSnapshot(nil, snap); !errors.Is(err, core.ErrPageIDRange) {
			t.Errorf("snapshot with next page %d: %v, want ErrPageIDRange", id, err)
		}
	}
	ftb, err := follower.Table("acct")
	if err != nil {
		t.Fatalf("a refused snapshot discarded the catalog: %v", err)
	}
	if got, err := ftb.Read(nil, rid); err != nil || string(got) != "kept" {
		t.Fatalf("after the refusals the follower reads %q, %v", got, err)
	}

	// The window is exact: its last id is taken and moves the mark.
	edge := core.PageID(nextPage + wireIDWindow)
	err = a.Apply([]wal.Record{{LSN: a.AppliedLSN() + 1, Type: wal.RecAlloc, Meta: encodeAllocMeta(edge+1, 0, "r1")}})
	if !errors.Is(err, core.ErrPageIDRange) {
		t.Errorf("RecAlloc of page %d at mark %d: %v, want ErrPageIDRange", edge+1, nextPage, err)
	}
	a.Resync()
	err = a.Apply([]wal.Record{{LSN: a.AppliedLSN() + 1, Type: wal.RecAlloc, Meta: encodeAllocMeta(edge, 0, "r1")}})
	if err != nil || follower.nextPage.Load() != uint64(edge) {
		t.Errorf("RecAlloc of page %d at mark %d: %v, mark now %d", edge, nextPage, err, follower.nextPage.Load())
	}
}

// TestPromoteKeepsShippedCommit: a commit is acknowledged once its
// commit record is on a quorum, before its end record ships. A follower
// promoted at exactly that cut must keep the transaction — complete it
// with an end record — not roll it back as a loser.
func TestPromoteKeepsShippedCommit(t *testing.T) {
	primary := newReplRig(t)
	defer primary.Close()
	follower := newReplRig(t)
	defer follower.Close()
	a, err := follower.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}

	ptb, err := primary.CreateTable("acct", "r1")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(primary, nil)
	rid, err := ptb.Insert(tx, []byte("v0-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, a)

	tx = mustBegin(primary, nil)
	if err := ptb.Update(tx, rid, []byte("v1-a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	if _, err := primary.WAL().ReadFrom(a.AppliedLSN()+1, 64, 1<<20, func(r wal.Record) {
		if r.LSN <= tx.CommitLSN() {
			recs = append(recs, r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(recs); err != nil {
		t.Fatal(err)
	}
	if err := a.Promote(); err != nil {
		t.Fatal(err)
	}

	ftb, err := follower.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ftb.Read(nil, rid); err != nil || string(got) != "v1-a" {
		t.Fatalf("row = %q, %v, want v1-a", got, err)
	}
	ended := false
	follower.WAL().Scan(tx.CommitLSN()+1, func(r wal.Record) bool {
		if r.TxID != tx.id {
			return true
		}
		switch r.Type {
		case wal.RecEnd:
			ended = true
		case wal.RecCLR, wal.RecAbort:
			t.Errorf("promotion wrote %v at LSN %d for committed tx %d", r.Type, r.LSN, tx.id)
		}
		return true
	})
	if !ended {
		t.Errorf("promoted log holds no end record for committed tx %d", tx.id)
	}
}

// TestFollowerCrashKeepsAppliedCommit: the primary acknowledges a commit
// once followers have applied its commit record (repl.WaitCommitted), and
// the applier makes every record it applies durable. So a follower that
// loses power at that cut, before the end record ships, keeps every
// record it applied and the transaction with them: the restart completes
// it, it does not roll it back.
func TestFollowerCrashKeepsAppliedCommit(t *testing.T) {
	primary := newReplRig(t)
	defer primary.Close()
	follower := newReplRig(t)
	defer follower.Close()
	a, err := follower.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}
	ptb, err := primary.CreateTable("acct", "r1")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(primary, nil)
	rid, err := ptb.Insert(tx, []byte("v0-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, a)
	tx = mustBegin(primary, nil)
	if err := ptb.Update(tx, rid, []byte("v1-a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	if _, err := primary.WAL().ReadFrom(a.AppliedLSN()+1, 64, 1<<20, func(r wal.Record) {
		if r.LSN <= tx.CommitLSN() {
			recs = append(recs, r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(recs); err != nil {
		t.Fatal(err)
	}
	applied := a.AppliedLSN()
	if applied != tx.CommitLSN() {
		t.Fatalf("precondition: applied to %d, commit record at %d", applied, tx.CommitLSN())
	}
	rep, err := crash(follower)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneTxs != 0 || rep.CompletedTxs != 1 {
		t.Errorf("restart undid %d and completed %d transactions, want 0 and 1", rep.UndoneTxs, rep.CompletedTxs)
	}
	if got, err := follower.WAL().Get(applied); err != nil || got.Type != wal.RecCommit || got.TxID != tx.id {
		t.Errorf("the follower's log at the applied LSN %d after the cut = %v, %v; want tx %d's commit", applied, got, err, tx.id)
	}
	ftb, err := follower.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ftb.Read(nil, rid); err != nil || string(got) != "v1-a" {
		t.Fatalf("row = %q, %v, want v1-a", got, err)
	}
}

// TestApplierTxTableStaysBounded: a follower whose primary never
// checkpoints (a served leader runs without a log capacity) keeps, in
// its replay's transaction table, only what is open and what was open
// when the replay began — not one entry for every transaction it has
// seen end. The stream opens with transactions met mid-life (their
// records before the replay's first, their commit and end inside it),
// runs 100 000 committed transactions and leaves two open.
func TestApplierTxTableStaysBounded(t *testing.T) {
	follower := newRigWithOptions(t, rigGeometry(), Options{
		PageSize: 512, BufferFrames: 64, MVCC: true, Replicated: true,
	})
	defer follower.Close()
	a, err := follower.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn := a.AppliedLSN()
	var batch []wal.Record
	emit := func(typ wal.RecType, tx uint64) {
		lsn++
		batch = append(batch, wal.Record{LSN: lsn, Type: typ, TxID: tx})
		if len(batch) == 3000 {
			if err := a.Apply(batch); err != nil {
				t.Fatalf("Apply at LSN %d: %v", lsn, err)
			}
			batch = batch[:0]
		}
	}
	const midLife, committed = 3, 100_000
	for tx := uint64(1); tx <= midLife; tx++ {
		emit(wal.RecCommit, tx)
	}
	for tx := uint64(midLife + 1); tx <= midLife+committed; tx++ {
		emit(wal.RecBegin, tx)
		emit(wal.RecCommit, tx)
		emit(wal.RecEnd, tx)
		if tx == midLife+committed/2 {
			for mid := uint64(1); mid <= midLife; mid++ {
				emit(wal.RecEnd, mid)
			}
		}
	}
	const stillOpen = 2
	for tx := uint64(midLife + committed + 1); tx <= midLife+committed+stillOpen; tx++ {
		emit(wal.RecBegin, tx)
	}
	if err := a.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if len(a.txs.open) != stillOpen {
		t.Errorf("%d transactions open in the replay, want %d", len(a.txs.open), stillOpen)
	}
	if n := len(a.txs.open) + len(a.txs.ended); n > midLife+stillOpen {
		t.Errorf("the replay's transaction table holds %d entries (%d open, %d ended), want at most %d",
			n, len(a.txs.open), len(a.txs.ended), midLife+stillOpen)
	}
}
