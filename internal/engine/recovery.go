package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ipa/internal/core"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// This file is the engine's one ARIES log replay. Restart recovery
// (Recover, below) and the replication follower (Applier, replica.go)
// fold every record into the same transaction table (analysis), redo
// update and compensation records through the same PageLSN-guarded step
// (redo), and end what the log leaves open with the same loser pass
// (endOpen). What only a follower does — the parity append, catalog
// records, version-store entries, truncation at a shipped checkpoint —
// stays in replica.go, around these three.

// RecoveryReport summarises a restart.
type RecoveryReport struct {
	MappedPages     int // logical pages the flash scan found, over every store
	AnalyzedRecords int
	RedoneOps       int
	SkippedOps      int // redo found PageLSN already current
	UndoneTxs       int
	CompletedTxs    int
}

// Recover restarts an instance SimulateCrash took down, from flash and
// the durable log alone: each store rebuilds its mapping (and a PDL
// region its differential index) from flash; one scan of the log analyses
// every record and redoes update, compensation and allocation records
// under the PageLSN guard; then the loser pass and restoreChains. Redo
// runs on images reconstructed from flash plus their delta-records, so
// the paper's claim that IPA leaves recovery untouched is exercised, not
// assumed. On an error the instance stays down.
func (db *DB) Recover(w *sim.Worker) (RecoveryReport, error) {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	// Recovery is stop-the-world: the state latch is held exclusively, so
	// no transaction can run concurrently.
	db.lockState()
	defer db.unlockState()
	var rep RecoveryReport
	if !db.crashed {
		return rep, errors.New("engine: Recover restarts a crashed instance")
	}
	for _, st := range byName(db, db.stores) {
		n, err := st.recoverMapping(w)
		if err != nil {
			return rep, err
		}
		rep.MappedPages += n
	}
	txs := newTxTable()
	var err error
	// The scan sees exactly the contiguous published prefix of the log —
	// the WAL guarantees no LSN gaps below its Head() — so analysis can
	// treat the record stream as the complete, ordered history.
	db.log.Scan(db.log.Tail(), func(r wal.Record) bool {
		rep.AnalyzedRecords++
		txs.analyze(r)
		if r.Type != wal.RecUpdate && r.Type != wal.RecCLR && r.Type != wal.RecAlloc {
			return true
		}
		var redone bool
		if redone, err = db.redo(w, r, false); err != nil {
			return false
		}
		if redone {
			rep.RedoneOps++
		} else {
			rep.SkippedOps++
		}
		return true
	})
	if err == nil {
		rep.UndoneTxs, rep.CompletedTxs, err = db.endOpen(w, &txs)
	}
	if err == nil {
		err = db.restoreChains(w)
	}
	if err != nil {
		return rep, err
	}
	db.crashed = false
	db.closed.Store(false)
	if db.vs != nil {
		db.vs.startReaper(db.log.Head)
	}
	return rep, nil
}

// restoreChains recreates, empty, each heap page a table lists that
// neither flash nor the log holds: a loser's page whose records the
// power cut took. The id stays in the chain; ids are not reused.
func (db *DB) restoreChains(w *sim.Worker) error {
	for _, t := range byName(db, db.tables) {
		for _, id := range t.heapPages() {
			if t.st.region.Contains(id) {
				continue
			}
			pg, err := db.pinRedo(w, t.st, id, true)
			if err == nil {
				err = pg.unpinDirty(db.log.Head())
			}
			if err != nil {
				return fmt.Errorf("engine: restore heap page %d of %q: %w", id, t.name, err)
			}
		}
	}
	return nil
}

// replayTx is a transaction the replay has met and not seen end.
type replayTx struct {
	firstLSN  core.LSN
	lastLSN   core.LSN   // its newest record
	rids      []core.RID // tuples its updates touch, for the version store
	begun     bool       // the replay met its RecBegin
	aborted   bool
	committed bool
}

// txTable is the ARIES transaction table.
type txTable struct {
	open map[uint64]*replayTx
	// free holds the entries of transactions whose end record the replay
	// met, for the next ones to reuse with their rids capacity: a
	// follower meets every transaction of its primary.
	free  []*replayTx
	first core.LSN // the first record the replay met
	// ended holds the transactions the replay met mid-life — no RecBegin:
	// first met at a later record, in a checkpoint's list, or at the end
	// record itself — whose end record it met since its last checkpoint
	// record. A checkpoint is fuzzy: it lists the transactions active
	// when it began, and one of them can end before the checkpoint record
	// is appended. Such a transaction must not come back when the
	// checkpoint seeds the table. One the replay met from its RecBegin
	// needs no entry: the checkpoint lists it with a last LSN at or after
	// first, a record the replay met, so open alone says whether it
	// ended. The set holds at most the transactions open when the replay
	// began, also on a follower whose primary never checkpoints.
	ended map[uint64]struct{}
}

// replayFree bounds txTable.free, and replayFreeRIDs the rids capacity
// an entry may keep there: a bulk load's thousands of RIDs are not kept.
const (
	replayFree     = 16
	replayFreeRIDs = 64
)

func newTxTable() txTable {
	return txTable{open: make(map[uint64]*replayTx), ended: make(map[uint64]struct{})}
}

// tx returns a transaction's entry, creating it at lsn: a replay can
// first meet a transaction mid-life (a truncated log, a follower primed
// from a snapshot).
func (tt *txTable) tx(id uint64, lsn core.LSN) *replayTx {
	t := tt.open[id]
	if t == nil {
		t = tt.add(id, lsn)
	}
	t.lastLSN = lsn
	return t
}

// add opens an entry for id at lsn, reusing a free one when it can.
func (tt *txTable) add(id uint64, lsn core.LSN) *replayTx {
	var t *replayTx
	if n := len(tt.free); n > 0 {
		t = tt.free[n-1]
		tt.free = tt.free[:n-1]
		*t = replayTx{rids: t.rids[:0]}
	} else {
		t = new(replayTx)
	}
	t.firstLSN, t.lastLSN = lsn, lsn
	tt.open[id] = t
	return t
}

// analyze folds one record into the table.
func (tt *txTable) analyze(r wal.Record) {
	if tt.first == 0 {
		tt.first = r.LSN
	}
	switch r.Type {
	case wal.RecBegin:
		tt.tx(r.TxID, r.LSN).begun = true
	case wal.RecCLR:
		tt.tx(r.TxID, r.LSN)
	case wal.RecUpdate:
		t := tt.tx(r.TxID, r.LSN)
		t.rids = append(t.rids, core.RID{Page: r.Page, Slot: r.Slot})
	case wal.RecAbort:
		tt.tx(r.TxID, r.LSN).aborted = true
	case wal.RecCommit:
		tt.tx(r.TxID, r.LSN).committed = true
	case wal.RecEnd:
		t := tt.open[r.TxID]
		if t == nil || !t.begun {
			tt.ended[r.TxID] = struct{}{}
		}
		if t != nil {
			delete(tt.open, r.TxID)
			if len(tt.free) < replayFree && cap(t.rids) <= replayFreeRIDs {
				tt.free = append(tt.free, t)
			}
		}
	case wal.RecCheckpoint:
		// A transaction active at the checkpoint whose records precede
		// the replay still needs an entry.
		for id, last := range r.ActiveTxs {
			if last >= tt.first {
				continue // the replay met its record at last: open tells
			}
			if _, ended := tt.ended[id]; !ended && tt.open[id] == nil {
				tt.add(id, last)
			}
		}
		clear(tt.ended)
	}
}

// redo applies one update, compensation or allocation record to its page
// if the page does not already reflect it (the PageLSN guard), and
// reports whether it did. A change is made under the page's exclusive
// frame latch: that latch captures the frame's flushed image, and bytes
// redone without it would count as already stored and never be flushed.
// A table page's allocation changes nothing but the PageLSN: pinRedo
// recreates a page that never reached this node's flash, so its table
// can read it before any update on it is replayed — or when none comes,
// because the log ends between the two. An index page's is skipped: no
// record rebuilds its content.
//
// Restart pins the page shared and takes the exclusive latch only for a
// change, so a record the guard skips copies nothing. A follower pins it
// exclusive: an update record's before-image goes into the version store
// under that latch whether or not the guard skips the change.
func (db *DB) redo(w *sim.Worker, r wal.Record, follower bool) (bool, error) {
	if r.Type == wal.RecAlloc {
		id, owner, _, err := decodeAllocMeta(r.Meta)
		if err != nil || owner == 0 {
			return false, err
		}
		r.Page, r.Op = id, wal.OpNone
	}
	st := db.pageDir.get(r.Page)
	if st == nil {
		return false, fmt.Errorf("engine: redo LSN %d: page %d has no store", r.LSN, r.Page)
	}
	pg, err := db.pinRedo(w, st, r.Page, follower)
	if err != nil {
		return false, fmt.Errorf("engine: redo LSN %d on page %d: %w", r.LSN, r.Page, err)
	}
	apply := pg.LSN() < r.LSN
	if follower && r.Type == wal.RecUpdate && db.vs != nil {
		db.installBefore(&pg.Page, r, apply)
	}
	if !apply {
		return false, pg.unpin()
	}
	if !follower {
		pg.unlatch()
		pg.latch(true)
	}
	if err := applyOp(&pg.Page, r.Op, int(r.Slot), int(r.Off), r.After); err != nil {
		pg.unpin()
		return false, fmt.Errorf("engine: redo LSN %d on page %d: %w", r.LSN, r.Page, err)
	}
	pg.SetLSN(r.LSN)
	return true, pg.unpinDirty(r.LSN)
}

// endOpen is the loser pass: it ends every transaction the table holds
// open and reports how many it rolled back and how many it completed. A
// transaction whose commit record is in the log is a winner whether or
// not its end record is, and gets the end record. Every other is a
// loser: RecAbort unless it has one, a rollback that writes a CLR per
// update, and RecEnd — at which the version store stamps the
// before-images the rollback restored, as Tx.Abort does. Transactions go
// newest last record first, so a run appends the same records every time.
func (db *DB) endOpen(w *sim.Worker, txs *txTable) (undone, completed int, err error) {
	ids := make([]uint64, 0, len(txs.open))
	for id := range txs.open {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(x, y uint64) int {
		return cmp.Compare(txs.open[y].lastLSN, txs.open[x].lastLSN)
	})
	for _, id := range ids {
		t := txs.open[id]
		if t.committed {
			db.log.Append(wal.Record{Type: wal.RecEnd, TxID: id})
			completed++
		} else {
			if !t.aborted {
				db.log.Append(wal.Record{Type: wal.RecAbort, TxID: id, PrevLSN: t.lastLSN})
			}
			if err := db.rollback(w, id, t.lastLSN); err != nil {
				return undone, completed, err
			}
			end := db.log.Append(wal.Record{Type: wal.RecEnd, TxID: id})
			if db.vs != nil {
				db.vs.stampCommitted(t.rids, id, end)
			}
			undone++
		}
		delete(txs.open, id)
	}
	db.log.Flush(db.log.Head())
	return undone, completed, nil
}
