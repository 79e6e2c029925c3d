package engine

import (
	"encoding/binary"
	"fmt"
	"maps"
	"testing"

	"ipa/internal/core"
	"ipa/internal/wal"
)

// A replay script drives a primary through a history of transactions,
// one byte a step: bits 0-1 pick one of four transaction slots (a slot
// begins a transaction when it first needs one), bits 2-4 the action,
// bits 5-7 the row (an index into the rows inserted so far). A step the
// engine refuses — a lock held by another slot, a row already deleted —
// changes nothing and is skipped.
const (
	stepInsert = iota
	stepUpdate
	stepAddField
	stepDelete
	stepCommit
	stepAbort
	stepCheckpoint
	stepUpdateField
)

func step(action, slot, row int) byte { return byte(row<<5 | action<<2 | slot) }

// replayScript is the scripted history of the cut tests: inserts, a
// whole-tuple update, a field patch, a delete, an aborted transaction
// (two updates, two CLRs), a transaction left open across a checkpoint,
// a commit after the checkpoint, and a second transaction left open.
var replayScript = []byte{
	step(stepInsert, 0, 0), step(stepInsert, 0, 0), step(stepInsert, 0, 0),
	step(stepInsert, 0, 0), step(stepInsert, 0, 0), step(stepInsert, 0, 0),
	step(stepCommit, 0, 0),
	step(stepUpdate, 1, 0), step(stepCommit, 1, 0),
	step(stepAddField, 1, 1), step(stepCommit, 1, 0),
	step(stepDelete, 2, 2), step(stepCommit, 2, 0),
	step(stepUpdate, 3, 3), step(stepUpdateField, 3, 4), step(stepAbort, 3, 0),
	step(stepUpdate, 0, 5),
	step(stepCheckpoint, 0, 0),
	step(stepInsert, 1, 0), step(stepCommit, 1, 0),
	step(stepAddField, 2, 1),
}

// replayHistory is a primary's whole log and, for every commit, its
// record's LSN and the table's committed state right after it.
type replayHistory struct {
	recs    []wal.Record
	commits []replayCommit
}

type replayCommit struct {
	lsn   core.LSN
	state map[core.RID][]byte
}

// stateAt is the committed state a replay of the first k records must
// show: a transaction's writes are visible iff its commit record is in.
func (h replayHistory) stateAt(k int) map[core.RID][]byte {
	state := map[core.RID][]byte{}
	for _, c := range h.commits {
		if c.lsn <= core.LSN(k) {
			state = c.state
		}
	}
	return state
}

// runReplayScript runs a script on a fresh primary and returns its
// history. The primary stays open until the test ends: the returned
// records alias its log.
func runReplayScript(t testing.TB, script []byte) replayHistory {
	t.Helper()
	db := newReplRig(t)
	t.Cleanup(func() { db.Close() })
	db.WAL().SetRetainFloor(1) // a checkpoint truncates nothing: every cut stays shippable
	tb, err := db.CreateTable("acct", "r1")
	if err != nil {
		t.Fatal(err)
	}
	var (
		h         replayHistory
		rids      []core.RID
		txs       [4]*Tx
		pending   [4]map[core.RID][]byte // a slot's writes; nil means deleted
		committed = map[core.RID][]byte{}
		seq       uint64
	)
	for _, b := range script {
		slot, action, row := int(b&3), int(b>>2&7), int(b>>5)
		switch action {
		case stepCheckpoint:
			if err := checkpoint(db); err != nil {
				t.Fatal(err)
			}
			continue
		case stepCommit, stepAbort:
			tx := txs[slot]
			if tx == nil {
				continue
			}
			if action == stepAbort {
				err = tx.Abort()
			} else if err = tx.Commit(); err == nil {
				maps.Copy(committed, pending[slot])
				maps.DeleteFunc(committed, func(_ core.RID, v []byte) bool { return v == nil })
				h.commits = append(h.commits, replayCommit{tx.CommitLSN(), maps.Clone(committed)})
			}
			if err != nil {
				t.Fatal(err)
			}
			txs[slot], pending[slot] = nil, nil
			continue
		}
		if txs[slot] == nil {
			txs[slot], pending[slot] = mustBegin(db, nil), map[core.RID][]byte{}
		}
		tx := txs[slot]
		seq++
		if action == stepInsert {
			tup := make([]byte, 24)
			binary.LittleEndian.PutUint64(tup, seq)
			copy(tup[16:], "row-----")
			if rid, err := tb.Insert(tx, tup); err == nil {
				rids = append(rids, rid)
				pending[slot][rid] = tup
			}
			continue
		}
		if len(rids) == 0 {
			continue
		}
		rid := rids[row%len(rids)]
		switch action {
		case stepUpdate:
			tup := make([]byte, 24)
			binary.LittleEndian.PutUint64(tup, seq)
			copy(tup[16:], "updated-")
			err = tb.Update(tx, rid, tup)
		case stepAddField:
			err = tb.AddField(tx, rid, 8, seq)
		case stepUpdateField:
			err = tb.UpdateField(tx, rid, 16, []byte(fmt.Sprintf("fld%05d", seq%100000)))
		case stepDelete:
			if err = tb.Delete(tx, rid); err == nil {
				pending[slot][rid] = nil
				continue
			}
		}
		if err == nil {
			got, err := tb.Read(nil, rid)
			if err != nil {
				t.Fatalf("read back %v: %v", rid, err)
			}
			pending[slot][rid] = append([]byte(nil), got...)
		}
	}
	for lsn := core.LSN(1); lsn <= db.WAL().Head(); {
		n, err := db.WAL().ReadFrom(lsn, 256, 1<<20, func(r wal.Record) { h.recs = append(h.recs, r) })
		if err != nil {
			t.Fatal(err)
		}
		lsn += core.LSN(n)
	}
	return h
}

// replicaAt builds a follower that has applied recs.
func replicaAt(t testing.TB, recs []wal.Record) (*DB, *Applier) {
	t.Helper()
	db := newReplRig(t)
	t.Cleanup(func() { db.Close() })
	a, err := db.NewApplier(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(recs); err != nil {
		t.Fatalf("apply %d records: %v", len(recs), err)
	}
	return db, a
}

// promoteAt and recoverAt end the first k records of a history the two
// ways an engine can: promotion of a follower, and a follower's crash
// and restart recovery. Each returns the records it appended.
func promoteAt(t testing.TB, h replayHistory, k int) (*DB, []wal.Record) {
	t.Helper()
	db, a := replicaAt(t, h.recs[:k])
	if err := a.Promote(); err != nil {
		t.Fatalf("cut %d: Promote: %v", k, err)
	}
	return db, logFrom(db, core.LSN(k)+1)
}

func recoverAt(t testing.TB, h replayHistory, k int) (*DB, []wal.Record) {
	t.Helper()
	db, _ := replicaAt(t, h.recs[:k])
	if _, err := crash(db); err != nil {
		t.Fatalf("cut %d: Recover: %v", k, err)
	}
	return db, logFrom(db, core.LSN(k)+1)
}

func logFrom(db *DB, from core.LSN) []wal.Record {
	var out []wal.Record
	db.WAL().Scan(from, func(r wal.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// sameAppends fails t unless two runs appended the same records: type,
// transaction and, for a CLR, what it compensates on which tuple.
func sameAppends(t testing.TB, what string, a, b []wal.Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d records against %d: %v / %v", what, len(a), len(b), recTypes(a), recTypes(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type != y.Type || x.TxID != y.TxID ||
			x.Type == wal.RecCLR && (x.Page != y.Page || x.Slot != y.Slot || x.Op != y.Op) {
			t.Fatalf("%s: record %d differs: %v / %v", what, i, recTypes(a), recTypes(b))
		}
	}
}

func recTypes(recs []wal.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%v:tx%d", r.Type, r.TxID)
	}
	return out
}

// tableState is a follower's visible table, empty before the table's
// record shipped.
func tableState(t testing.TB, db *DB) map[core.RID][]byte {
	t.Helper()
	tb, err := db.Table("acct")
	if err != nil {
		return map[core.RID][]byte{}
	}
	return scanAll(t, tb)
}

// checkCut ends the first k records of h by promotion and by restart
// recovery and fails t unless both show exactly the transactions whose
// commit record is within the cut, and append the same records.
func checkCut(t testing.TB, h replayHistory, k int) {
	t.Helper()
	pdb, precs := promoteAt(t, h, k)
	rdb, rrecs := recoverAt(t, h, k)
	want := h.stateAt(k)
	for _, side := range []struct {
		name string
		db   *DB
	}{{"promote", pdb}, {"recover", rdb}} {
		got := tableState(t, side.db)
		if !maps.EqualFunc(want, got, func(a, b []byte) bool { return string(a) == string(b) }) {
			t.Fatalf("cut %d: %s shows %d rows %q, committed state has %d rows %q",
				k, side.name, len(got), got, len(want), want)
		}
	}
	sameAppends(t, fmt.Sprintf("cut %d: promote / recover", k), precs, rrecs)
}

// TestReplayCutsAgree cuts the scripted history after every record and
// ends the cut both ways a follower can — promotion, and a crash with
// restart recovery. Both run the one replay, so they must agree with
// each other and with the history: a commit record within the cut is a
// winner whether or not its end record is, and an abort that already
// shipped is not logged twice.
func TestReplayCutsAgree(t *testing.T) {
	h := runReplayScript(t, replayScript)
	for k := 1; k <= len(h.recs); k++ {
		checkCut(t, h, k)
	}
}

// TestLoserOrderDeterministic: with four losers open, the loser pass
// appends the same records on every run, newest last record first — a
// seeded fault simulation has to be able to replay it.
func TestLoserOrderDeterministic(t *testing.T) {
	script := append([]byte(nil), replayScript[:7]...) // six committed rows
	for slot := 0; slot < 4; slot++ {
		script = append(script, step(stepUpdate, slot, slot))
	}
	script = append(script, step(stepAddField, 1, 4), step(stepAddField, 3, 5))
	h := runReplayScript(t, script)
	k := len(h.recs)

	last := map[uint64]core.LSN{}
	for _, r := range h.recs {
		if r.TxID != 0 {
			last[r.TxID] = r.LSN
		}
	}
	_, first := promoteAt(t, h, k)
	var aborts []uint64
	for _, r := range first {
		if r.Type == wal.RecAbort {
			aborts = append(aborts, r.TxID)
		}
	}
	if len(aborts) != 4 {
		t.Fatalf("loser pass aborted %d transactions, want 4: %v", len(aborts), recTypes(first))
	}
	for i := 1; i < len(aborts); i++ {
		if last[aborts[i-1]] < last[aborts[i]] {
			t.Fatalf("tx %d (last LSN %d) undone before tx %d (last LSN %d)",
				aborts[i-1], last[aborts[i-1]], aborts[i], last[aborts[i]])
		}
	}
	for run := 0; run < 8; run++ {
		_, precs := promoteAt(t, h, k)
		sameAppends(t, fmt.Sprintf("promotion %d", run), first, precs)
		_, rrecs := recoverAt(t, h, k)
		sameAppends(t, fmt.Sprintf("recovery %d", run), first, rrecs)
	}
}

// FuzzReplayCut runs a script on a primary, cuts its log and checks that
// promotion and restart recovery agree (checkCut). The seed corpus is
// the scripted history at every cut.
func FuzzReplayCut(f *testing.F) {
	h := runReplayScript(f, replayScript)
	for k := 1; k <= len(h.recs); k++ {
		f.Add(replayScript, uint16(k-1))
	}
	f.Fuzz(func(t *testing.T, script []byte, cut uint16) {
		if len(script) > 128 {
			script = script[:128]
		}
		h := runReplayScript(t, script)
		checkCut(t, h, 1+int(cut)%len(h.recs))
	})
}
