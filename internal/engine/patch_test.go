package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"ipa/internal/core"
	"ipa/internal/noftl"
	"ipa/internal/wal"
)

// patchRows inserts n committed 24-byte rows (three 8-byte words: id, a
// counter, a tag) and flushes them, so later field updates are the only
// unflushed change.
func patchRows(t *testing.T, db *DB, tbl *Table, n int) []core.RID {
	t.Helper()
	tx := mustBegin(db, nil)
	rids := make([]core.RID, n)
	for i := range rids {
		row := make([]byte, 24)
		binary.LittleEndian.PutUint64(row, uint64(i))
		binary.LittleEndian.PutUint64(row[8:], 100)
		copy(row[16:], "tag-----")
		rid, err := tbl.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	return rids
}

func counter(t *testing.T, tbl *Table, rid core.RID) uint64 {
	t.Helper()
	row, err := tbl.Read(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(row[8:])
}

// recordsOf returns the update and compensation records of one
// transaction, oldest first.
func recordsOf(db *DB, txID uint64) []wal.Record {
	var recs []wal.Record
	db.log.Scan(1, func(r wal.Record) bool {
		if r.TxID == txID && (r.Type == wal.RecUpdate || r.Type == wal.RecCLR) {
			recs = append(recs, r)
		}
		return true
	})
	return recs
}

// A field update is logged as an OpPatch that carries the bytes it
// changes and nothing else, and costs the log exactly those bytes.
func TestFieldUpdateLogsOnlyChangedBytes(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 16, false)
	tbl, _ := r.db.CreateTable("t", "main")
	rid := patchRows(t, r.db, tbl, 1)[0]

	tx := mustBegin(r.db, nil)
	if err := tbl.AddField(tx, rid, 8, 5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UpdateField(tx, rid, 19, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := recordsOf(r.db, tx.id)
	if len(recs) != 2 {
		t.Fatalf("%d update records, want 2", len(recs))
	}
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for i, want := range []wal.Record{
		{Op: wal.OpPatch, Off: 8, Before: le(100), After: le(105)},
		{Op: wal.OpPatch, Off: 19, Before: []byte("---"), After: []byte("XYZ")},
	} {
		got := recs[i]
		if got.Type != wal.RecUpdate || got.Op != want.Op || got.Off != want.Off || got.Page != rid.Page || got.Slot != rid.Slot ||
			!bytes.Equal(got.Before, want.Before) || !bytes.Equal(got.After, want.After) {
			t.Errorf("record %d = %+v, want op %d off %d before %x after %x", i, got, want.Op, want.Off, want.Before, want.After)
		}
		if got.Size() != 48+2*len(want.After) {
			t.Errorf("record %d charged %d bytes for a %d-byte change", i, got.Size(), len(want.After))
		}
	}
	row, _ := tbl.Read(nil, rid)
	if binary.LittleEndian.Uint64(row[8:]) != 105 || string(row[16:]) != "tagXYZ--" {
		t.Errorf("row after the patches: %x", row)
	}

	// Out of range: an error, no record, no change, for both forms.
	tx = mustBegin(r.db, nil)
	head := r.db.log.Head()
	if err := tbl.AddField(tx, rid, 17, 1); err == nil {
		t.Error("AddField across the end of the tuple succeeded")
	}
	if err := tbl.UpdateField(tx, rid, 22, []byte("abc")); err == nil {
		t.Error("UpdateField across the end of the tuple succeeded")
	}
	if err := tbl.UpdateField(tx, rid, -1, []byte("a")); err == nil {
		t.Error("UpdateField at a negative offset succeeded")
	}
	if err := tbl.AddField(tx, rid, math.MaxInt, 1); err == nil { // off+8 wraps
		t.Error("AddField at the largest offset succeeded")
	}
	if r.db.log.Head() != head {
		t.Errorf("rejected field updates logged %d records", r.db.log.Head()-head)
	}
	if again, _ := tbl.Read(nil, rid); !bytes.Equal(again, row) {
		t.Errorf("rejected field updates changed the row: %x", again)
	}
	tx.Abort()
}

// Redo, undo and CLR redo of OpPatch: several patches to one tuple, a
// patch after a length-changing Update relocated the tuple within its
// page, an explicit abort, a loser whose patches were stolen to flash,
// and a second crash that has to redo the first recovery's CLRs.
func TestPatchRedoUndoCLR(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 16, false)
	db := r.db
	tbl, _ := db.CreateTable("t", "main")
	rids := patchRows(t, db, tbl, 6)
	orig := make([][]byte, len(rids))
	for i, rid := range rids {
		orig[i], _ = tbl.Read(nil, rid)
	}

	// Committed: three patches to one tuple, in memory only.
	tx := mustBegin(db, nil)
	for _, d := range []uint64{5, 7, ^uint64(0)} { // +5 +7 -1
		if err := tbl.AddField(tx, rids[0], 8, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.UpdateField(tx, rids[0], 16, []byte("TAG")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Committed: the tuple grows (relocates in the page), then is patched.
	tx = mustBegin(db, nil)
	long := append(append([]byte(nil), orig[1]...), "-grown-by-sixteen"...)
	if err := tbl.Update(tx, rids[1], long); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddField(tx, rids[1], 8, 11); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UpdateField(tx, rids[1], 30, []byte("PATCHED")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	wantLong := append([]byte(nil), long...)
	binary.LittleEndian.PutUint64(wantLong[8:], 111)
	copy(wantLong[30:], "PATCHED")

	// Aborted: patches before and after a relocation, several to one
	// tuple; the rollback's CLRs are patches too.
	tx = mustBegin(db, nil)
	if err := tbl.AddField(tx, rids[2], 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(tx, rids[2], append(append([]byte(nil), orig[2]...), "longer"...)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddField(tx, rids[2], 8, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UpdateField(tx, rids[2], 26, []byte("zz")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.Read(nil, rids[2]); !bytes.Equal(got, orig[2]) {
		t.Fatalf("aborted row = %x, want %x", got, orig[2])
	}
	var clrs int
	for _, rec := range recordsOf(db, tx.id) {
		if rec.Type != wal.RecCLR {
			continue
		}
		clrs++
		if rec.Op == wal.OpPatch && (len(rec.Before) != 0 || len(rec.After) == 0 || rec.Size() > 48+8) {
			t.Errorf("patch CLR %+v: want the restored bytes in After and nothing else", rec)
		}
	}
	if clrs != 4 {
		t.Errorf("%d CLRs for 4 undone records", clrs)
	}

	// Loser: patched three times, its page stolen to flash mid-way.
	loser := mustBegin(db, nil)
	if err := tbl.AddField(loser, rids[3], 8, 1000); err != nil {
		t.Fatal(err)
	}
	if err := tbl.UpdateField(loser, rids[3], 16, []byte("LOSER")); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddField(loser, rids[3], 8, 2000); err != nil {
		t.Fatal(err)
	}
	// Committed after the steal, so redo has patches to apply on top of
	// the flushed image.
	tx = mustBegin(db, nil)
	if err := tbl.AddField(tx, rids[4], 8, 9); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	check := func(when string) {
		t.Helper()
		want := [][]byte{nil, wantLong, orig[2], orig[3], nil, orig[5]}
		want[0] = append([]byte(nil), orig[0]...)
		binary.LittleEndian.PutUint64(want[0][8:], 111)
		copy(want[0][16:], "TAG")
		want[4] = append([]byte(nil), orig[4]...)
		binary.LittleEndian.PutUint64(want[4][8:], 109)
		for i, rid := range rids {
			got, err := tbl.Read(nil, rid)
			if err != nil {
				t.Fatalf("%s: row %d: %v", when, i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s: row %d = %x, want %x", when, i, got, want[i])
			}
		}
	}

	rep, err := crash(db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneTxs != 1 || rep.RedoneOps == 0 {
		t.Errorf("recovery report %+v: want one loser undone and patches redone", rep)
	}
	check("after recovery")

	// Crash again before anything is flushed: the loser's CLRs (patches)
	// and everything else are redone from the log, and nothing is undone
	// twice.
	rep, err = crash(db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneTxs != 0 {
		t.Errorf("second recovery undid %d transactions", rep.UndoneTxs)
	}
	check("after the second recovery")
}

// N goroutines add to one row, retrying on the no-wait lock conflict:
// the read-modify-write happens under the tuple lock and the page
// latch, so no increment is lost. Run under -race.
func TestAddFieldLostUpdate(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		db := newCellRig(t, CellIPA, mvcc, 16).db
		tbl, err := db.CreateTable("t", "main")
		if err != nil {
			t.Fatal(err)
		}
		rid := patchRows(t, db, tbl, 1)[0]
		const workers, each = 8, 200
		var wg sync.WaitGroup
		var want uint64
		for g := 0; g < workers; g++ {
			delta := uint64(g + 1)
			want += delta * each
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; {
					tx := mustBegin(db, nil)
					err := tbl.AddField(tx, rid, 8, delta)
					if err == nil {
						runtime.Gosched() // hold the lock across a yield
						err = tx.Commit()
					}
					switch {
					case err == nil:
						i++
					case errors.Is(err, ErrLockConflict):
						tx.Abort()
						runtime.Gosched()
					default:
						t.Error(err)
						tx.Abort()
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := counter(t, tbl, rid); got != 100+want {
			t.Errorf("mvcc=%v: counter = %d, want %d (lost %d)", mvcc, got, 100+want, 100+want-got)
		}
		db.Close()
	}
}

// allocRig is the rig of the allocation guards, with the version store
// off — the paper rig's engine — or on, as every served stack runs.
func allocRig(t *testing.T, frames int, mvcc bool) *testRig {
	return newRigOptions(t, noftl.ModeSLC, core.NewScheme(2, 4), Options{
		PageSize: 512, BufferFrames: frames, DirtyThreshold: 2.0, MVCC: mvcc,
	})
}

// forMVCC runs an allocation guard with the version store off and on.
func forMVCC(t *testing.T, guard func(t *testing.T, mvcc bool)) {
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) { guard(t, mvcc) })
	}
}

// reapNow runs one reaper pass on the caller's goroutine, so that every
// version the warm-up stamped is on its shard's free list before the
// measurement starts.
func reapNow(db *DB) {
	if db.vs != nil {
		db.vs.reap(db.log.Head())
	}
}

// The embedded AddField is one pass with no tuple copy and no page
// handle on the heap. With MVCC off it measures 0 allocations per call;
// the guard leaves room for one (lock-table and WAL arena growth are
// amortised, not absent). With MVCC on, 3 000 committed one-AddField
// transactions (about three reaper passes) and one more pass warm the
// version store up first: the measured transaction's before-images then
// go into recycled entries.
func TestAddFieldAllocs(t *testing.T) {
	forMVCC(t, func(t *testing.T, mvcc bool) {
		r := allocRig(t, 16, mvcc)
		tbl, _ := r.db.CreateTable("t", "main")
		rids := patchRows(t, r.db, tbl, 8)
		if mvcc {
			for i := range 3000 {
				tx := mustBegin(r.db, nil)
				if err := tbl.AddField(tx, rids[i%len(rids)], 8, 1); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			reapNow(r.db)
		}
		tx := mustBegin(r.db, nil)
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			if err := tbl.AddField(tx, rids[i%len(rids)], 8, 1); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		t.Logf("AddField: %.3f allocs/op", allocs)
		if allocs > 1 {
			t.Errorf("AddField allocates %.2f per call, want <= 1", allocs)
		}
	})
}

// A TPC-B-shaped transaction on pages resident in the pool — Begin, three
// AddField, a history Insert, Commit — allocates the Tx, and beyond it
// only what many transactions share (a history page, a log segment): its
// four locks fit the lock slice the Tx carries, and the commit's group
// flush is one compare-and-swap, without a channel. With MVCC on, 3 000
// warm-up transactions (12 000 stamped versions, eleven reaper passes)
// and one more pass come first, in a pool large enough that the warm-up's
// history pages stay resident: each shard's free list then holds as many
// entries, with image buffers, as it ever needs between two passes, so
// the measured transactions take every before-image from there. This is
// the caller that never releases its handles.
func TestTPCBTransactionAllocs(t *testing.T) {
	forMVCC(t, func(t *testing.T, mvcc bool) {
		allocs := tpcbTransactionAllocs(t, mvcc, false)
		if allocs > 1 {
			t.Errorf("a TPC-B-shaped transaction allocates %.2f times, want <= 1", allocs)
		}
	})
}

// The same transaction, released after its commit, allocates nothing:
// the next Begin draws the handle back from the DB's free pool.
func TestReleasedTPCBTransactionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops released handles at random")
	}
	forMVCC(t, func(t *testing.T, mvcc bool) {
		if allocs := tpcbTransactionAllocs(t, mvcc, true); allocs > 0 {
			t.Errorf("a released TPC-B-shaped transaction allocates %.2f times, want 0", allocs)
		}
	})
}

// tpcbTransactionAllocs measures the allocations of one TPC-B-shaped
// transaction, after the warm-up that MVCC needs; release hands each
// ended transaction back with Tx.Release.
func tpcbTransactionAllocs(t *testing.T, mvcc, release bool) float64 {
	frames := 64
	if mvcc {
		frames = 256
	}
	r := allocRig(t, frames, mvcc)
	acct, _ := r.db.CreateTable("acct", "main")
	hist, _ := r.db.CreateTable("hist", "main")
	rids := patchRows(t, r.db, acct, 24)
	row := make([]byte, 24)
	i := 0
	txn := func() {
		tx := mustBegin(r.db, nil)
		for k := range 3 {
			if err := acct.AddField(tx, rids[(3*i+k)%len(rids)], 8, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := hist.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if release {
			if err := tx.Release(); err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
	if mvcc {
		for range 3000 {
			txn()
		}
		reapNow(r.db)
	}
	allocs := testing.AllocsPerRun(200, txn)
	t.Logf("TPC-B-shaped transaction (release %v): %.3f allocs/op", release, allocs)
	return allocs
}

// A one-field change flushed as a delta-record allocates the planned
// record slice and the encoded records: the diff goes into a pooled
// change set, and the records share its pairs, which are already in
// offset order. With MVCC on, 20 committed rounds of one AddField on
// every row (2 020 stamped versions, two reaper passes) and one more
// pass run before the rows are first flushed, so the measured
// transaction's before-images go into recycled 300-byte buffers.
func TestDeltaFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops pooled change sets at random")
	}
	forMVCC(t, func(t *testing.T, mvcc bool) {
		const pages = 101 // one row each; [2×4] takes two delta flushes a page
		r := allocRig(t, 128, mvcc)
		tbl, _ := r.db.CreateTable("t", "main")
		tx := mustBegin(r.db, nil)
		rids := make([]core.RID, pages)
		for i := range rids {
			var err error
			if rids[i], err = tbl.Insert(tx, make([]byte, 300)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if mvcc {
			for range 20 {
				tx := mustBegin(r.db, nil)
				for _, rid := range rids {
					if err := tbl.AddField(tx, rid, 8, 1); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			reapNow(r.db)
		}
		if err := r.db.FlushAll(nil); err != nil {
			t.Fatal(err)
		}
		st := r.db.Store("main")
		before := st.Stats()
		tx = mustBegin(r.db, nil)
		i := 0
		allocs := testing.AllocsPerRun(2*pages-1, func() {
			if err := tbl.AddField(tx, rids[i%pages], 8, 1); err != nil {
				t.Fatal(err)
			}
			if err := r.db.FlushAll(nil); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := st.Stats()
		if d, o := after.FlushesDelta-before.FlushesDelta, after.FlushesOOP-before.FlushesOOP; d != 2*pages || o != 0 {
			t.Fatalf("%d delta and %d out-of-place flushes, want %d and 0", d, o, 2*pages)
		}
		t.Logf("AddField + delta flush: %.3f allocs/op", allocs)
		if allocs > 2 {
			t.Errorf("a one-field delta flush allocates %.2f times, want <= 2", allocs)
		}
	})
}
