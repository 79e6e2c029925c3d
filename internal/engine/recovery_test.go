package engine

import (
	"errors"
	"testing"

	"ipa/internal/core"
	"ipa/internal/noftl"
	"ipa/internal/page"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

func TestRecoveryRedoesCommittedWork(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)

	tx := mustBegin(r.db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 7)
	rid, _ := tbl.Insert(tx, tup)
	tx.Commit()
	// Crash WITHOUT flushing: the page never reached flash; only the log
	// survives.
	rep, err := crash(r.db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoneOps == 0 {
		t.Error("nothing redone")
	}
	got, err := tbl.Read(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sch.GetUint(got, 0) != 7 {
		t.Errorf("value = %d, want 7", sch.GetUint(got, 0))
	}
}

func TestRecoveryUndoesLosers(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)

	tx := mustBegin(r.db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 42)
	rid, _ := tbl.Insert(tx, tup)
	tx.Commit()
	r.db.FlushAll(nil)

	// Loser transaction: small update flushed to flash (as a
	// delta-record) but never committed.
	loser := mustBegin(r.db, nil)
	cur, _ := tbl.Read(nil, rid)
	sch.SetUint(cur, 0, 43)
	tbl.Update(loser, rid, cur)
	r.db.FlushAll(nil)
	if r.db.Store("main").Stats().FlushesDelta == 0 {
		t.Fatal("precondition: loser's change should have flushed as delta")
	}

	rep, err := crash(r.db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneTxs != 1 {
		t.Errorf("UndoneTxs = %d, want 1", rep.UndoneTxs)
	}
	got, _ := tbl.Read(nil, rid)
	if sch.GetUint(got, 0) != 42 {
		t.Errorf("after recovery value = %d, want 42", sch.GetUint(got, 0))
	}
}

// TestRestartRecreatesALosersPage: a loser fills the table's page and
// chains a new one, and none of its records is durable, so the power cut
// leaves the new page neither on flash nor in the log. The table still
// lists it: the restart must recreate it empty, not leave Scan and
// Insert a page that does not exist. Its id is not reused.
func TestRestartRecreatesALosersPage(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	row := make([]byte, 100)
	tx := mustBegin(r.db, nil)
	rid, err := tbl.Insert(tx, row)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	loser := mustBegin(r.db, nil)
	for tbl.Pages() < 2 {
		if _, err := tbl.Insert(loser, row); err != nil {
			t.Fatal(err)
		}
	}
	if flushed := r.db.WAL().Flushed(); flushed >= loser.firstLSN {
		t.Fatalf("precondition: the log is durable to %d, past the loser's BEGIN at %d", flushed, loser.firstLSN)
	}
	if _, err := crash(r.db); err != nil {
		t.Fatal(err)
	}
	scan := func() []core.RID {
		t.Helper()
		var rids []core.RID
		if err := tbl.Scan(nil, func(rid core.RID, _ []byte) bool {
			rids = append(rids, rid)
			return true
		}); err != nil {
			t.Fatalf("scan after the restart: %v", err)
		}
		return rids
	}
	if got := scan(); len(got) != 1 || got[0] != rid {
		t.Fatalf("rows after the restart = %v, want only %v", got, rid)
	}
	tx = mustBegin(r.db, nil)
	if _, err := tbl.Insert(tx, row); err != nil {
		t.Fatalf("insert after the restart: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := scan(); len(got) != 2 || tbl.Pages() != 2 {
		t.Errorf("after one more insert: rows %v over %d pages, want 2 rows over 2", got, tbl.Pages())
	}
}

// TestFlushForcesTheLog is the WAL rule: a page reaches flash only once
// the log is durable up to its PageLSN. The change flushed here belongs
// to a transaction that never commits, so no commit forced the log for
// it; the flush has to.
func TestFlushForcesTheLog(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)

	tx := mustBegin(r.db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 42)
	rid, _ := tbl.Insert(tx, tup)
	tx.Commit()
	r.db.FlushAll(nil)

	loser := mustBegin(r.db, nil)
	cur, _ := tbl.Read(nil, rid)
	sch.SetUint(cur, 0, 43)
	if err := tbl.Update(loser, rid, cur); err != nil {
		t.Fatal(err)
	}
	st := r.db.Store("main")
	before := st.Stats().FlushesDelta
	if err := r.db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if st.Stats().FlushesDelta == before {
		t.Fatal("precondition: the loser's change should have flushed")
	}
	buf := make([]byte, st.layout.PageSize)
	if _, err := st.Fetch(nil, rid.Page, buf); err != nil {
		t.Fatal(err)
	}
	pg, err := page.Attach(buf, st.layout)
	if err != nil {
		t.Fatal(err)
	}
	if lsn, durable := pg.LSN(), r.db.WAL().Flushed(); lsn > durable {
		t.Errorf("page %d on flash has PageLSN %d, log durable to %d", rid.Page, lsn, durable)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	tx := mustBegin(r.db, nil)
	tup := sch.New()
	sch.SetUint(tup, 0, 5)
	rid, _ := tbl.Insert(tx, tup)
	tx.Commit()
	if _, err := crash(r.db); err != nil {
		t.Fatal(err)
	}
	// Crash again right after recovery, before any flush.
	if _, err := crash(r.db); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Read(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if sch.GetUint(got, 0) != 5 {
		t.Errorf("value = %d, want 5", sch.GetUint(got, 0))
	}
}

func TestRecoveryMixedWorkload(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 8, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 8)

	// 20 committed rows.
	var rids []core.RID
	for i := 0; i < 20; i++ {
		tx := mustBegin(r.db, nil)
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		sch.SetUint(tup, 1, 100)
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		tx.Commit()
	}
	r.db.FlushAll(nil)
	// Committed updates on half of them (not flushed).
	for i := 0; i < 10; i++ {
		tx := mustBegin(r.db, nil)
		cur, _ := tbl.Read(nil, rids[i])
		sch.AddUint(cur, 1, 1)
		tbl.Update(tx, rids[i], cur)
		tx.Commit()
	}
	// A loser touching two rows.
	loser := mustBegin(r.db, nil)
	for _, i := range []int{0, 15} {
		cur, _ := tbl.Read(nil, rids[i])
		sch.SetUint(cur, 1, 999)
		tbl.Update(loser, rids[i], cur)
	}

	// The power cut keeps the loser only if one of its records is on the
	// durable log; nothing after it forced the log.
	durable := 0
	if loser.firstLSN <= r.db.WAL().Flushed() {
		durable = 1
	}
	rep, err := crash(r.db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneTxs != durable {
		t.Errorf("UndoneTxs = %d, want %d", rep.UndoneTxs, durable)
	}
	for i, rid := range rids {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		want := uint64(100)
		if i < 10 {
			want = 101
		}
		if sch.GetUint(got, 1) != want {
			t.Errorf("row %d = %d, want %d", i, sch.GetUint(got, 1), want)
		}
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	for i := 0; i < 10; i++ {
		tx := mustBegin(r.db, nil)
		tbl.Insert(tx, make([]byte, 16))
		tx.Commit()
	}
	r.db.FlushAll(nil)
	before := r.db.WAL().UsedBytes()
	if err := r.db.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if r.db.WAL().UsedBytes() >= before {
		t.Errorf("checkpoint did not reclaim log space: %d → %d", before, r.db.WAL().UsedBytes())
	}
	if stats, err := r.db.Stats(); err != nil || stats.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d (%v)", stats.Checkpoints, err)
	}
	// Recovery still works on the truncated log.
	if _, err := crash(r.db); err != nil {
		t.Fatal(err)
	}
}

// The fuzzy checkpoint reads every stripe of the active-transaction
// table. Open transactions of workers on every stripe and of a nil worker
// must all be in the checkpoint record, and the checkpoint may cut the
// log no further than the oldest of them: their changes are flushed, so
// a loser whose records the cut dropped could not be undone. Each of them
// takes a turn as the oldest.
func TestCheckpointSeesEveryStripe(t *testing.T) {
	tl := sim.NewTimeline(1)
	var stripes sim.Striped[int]
	used := map[*int]bool{}
	var workers []*sim.Worker
	for len(used) < sim.Stripes {
		if w := tl.NewWorker(); !used[stripes.Of(w)] {
			used[stripes.Of(w)] = true
			workers = append(workers, w)
		}
	}
	workers = append(workers, nil)

	for oldest := range workers {
		r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 64, false)
		tbl, _ := r.db.CreateTable("t", "main")
		sch, _ := NewSchema(8)
		rids := make([]core.RID, len(workers))
		tx := mustBegin(r.db, nil)
		for i := range rids {
			tup := sch.New()
			sch.SetUint(tup, 0, 100)
			rids[i], _ = tbl.Insert(tx, tup)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		var losers []*Tx
		for k := range workers {
			i := (oldest + k) % len(workers)
			loser := mustBegin(r.db, workers[i])
			if err := tbl.AddField(loser, rids[i], 0, 1); err != nil {
				t.Fatal(err)
			}
			losers = append(losers, loser)
		}
		if err := r.db.FlushAll(nil); err != nil {
			t.Fatal(err)
		}
		if err := r.db.Checkpoint(nil); err != nil {
			t.Fatal(err)
		}
		var ckpt wal.Record
		r.db.WAL().Scan(0, func(rec wal.Record) bool {
			if rec.Type == wal.RecCheckpoint {
				ckpt = rec
			}
			return true
		})
		for _, loser := range losers {
			if _, ok := ckpt.ActiveTxs[loser.ID()]; !ok {
				t.Errorf("oldest %d: open tx %d missing from the checkpoint's %v", oldest, loser.ID(), ckpt.ActiveTxs)
			}
		}
		if tail := r.db.WAL().Tail(); tail > losers[0].firstLSN {
			t.Errorf("oldest %d: checkpoint cut the log at %d, past the oldest open tx's BEGIN at %d",
				oldest, tail, losers[0].firstLSN)
		}
		rep, err := crash(r.db)
		if err != nil {
			t.Fatal(err)
		}
		if rep.UndoneTxs != len(losers) {
			t.Errorf("oldest %d: recovery undid %d transactions, want %d", oldest, rep.UndoneTxs, len(losers))
		}
		for i, rid := range rids {
			if got, err := tbl.Read(nil, rid); err != nil || sch.GetUint(got, 0) != 100 {
				t.Errorf("oldest %d: row %d after recovery = %v (%v), want 100", oldest, i, got, err)
			}
		}
	}
}

func TestLogSpaceReclamationForcesFlushes(t *testing.T) {
	// A tiny log must trigger eager reclamation: dirty pages get flushed
	// even though the buffer never fills (the paper's explanation for
	// host writes at 90% buffer size).
	r := newRigWithLog(t, 8*1024)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8)
	tx := mustBegin(r.db, nil)
	rid, _ := tbl.Insert(tx, sch.New())
	tx.Commit()
	for i := 0; i < 200; i++ {
		tx := mustBegin(r.db, nil)
		cur, _ := tbl.Read(nil, rid)
		sch.AddUint(cur, 0, 1)
		if err := tbl.Update(tx, rid, cur); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := r.db.Store("main")
	writes := st.Stats().FlushesDelta + st.Stats().FlushesOOP
	if writes == 0 {
		t.Error("no flushes despite log pressure — eager reclamation broken")
	}
	if stats, err := r.db.Stats(); err != nil || stats.Checkpoints == 0 {
		t.Errorf("no checkpoints taken under log pressure (%v)", err)
	}
	if r.db.WAL().Usage() > 1.0 {
		t.Errorf("log overflowed: usage %v", r.db.WAL().Usage())
	}
}

func newRigWithLog(t *testing.T, logCap int) *testRig {
	t.Helper()
	rig := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 64, false)
	db, err := New(rig.dev, Options{
		PageSize: 512, BufferFrames: 64, DirtyThreshold: 2.0,
		LogCapacity: logCap, LogReclaimThreshold: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the already-created region on a fresh DB instance.
	rig.db = db
	return rig
}

func TestRecoverEmptyLog(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 8, false)
	rep, err := crash(r.db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoneOps != 0 || rep.UndoneTxs != 0 || rep.MappedPages != 0 {
		t.Errorf("empty recovery = %+v", rep)
	}
}

func TestTxDoubleFinish(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 3), 8, false)
	tx := mustBegin(r.db, nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxClosed) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxClosed) {
		t.Errorf("abort after commit: %v", err)
	}
}
