package engine

import (
	"fmt"

	"ipa/internal/core"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// RecoveryReport summarises a restart recovery run.
type RecoveryReport struct {
	AnalyzedRecords int
	RedoneOps       int
	SkippedOps      int // redo found PageLSN already current
	UndoneTxs       int
	CompletedTxs    int
}

// Recover performs ARIES restart recovery: analysis over the retained
// log, LSN-guarded redo of update and compensation records, and undo of
// loser transactions with CLRs. Pages are fetched through the normal
// path, so redo operates on images reconstructed from flash plus any
// delta-records that were ISPP-appended before the crash — the paper's
// claim that IPA leaves recovery untouched is exercised, not assumed.
func (db *DB) Recover(w *sim.Worker) (RecoveryReport, error) {
	// Recovery is stop-the-world: the state latch is held exclusively, so
	// no transaction can run concurrently.
	db.lockState()
	defer db.unlockState()
	db.inRecovery = true
	defer func() { db.inRecovery = false }()

	var rep RecoveryReport

	// --- Analysis ----------------------------------------------------
	type txInfo struct {
		lastLSN   core.LSN
		committed bool
		ended     bool
	}
	att := make(map[uint64]*txInfo)
	// The scan sees exactly the contiguous published prefix of the log —
	// the WAL guarantees no LSN gaps below its Head() — so analysis can
	// treat the record stream as the complete, ordered history.
	db.log.Scan(db.log.Tail(), func(r wal.Record) bool {
		rep.AnalyzedRecords++
		switch r.Type {
		case wal.RecBegin:
			att[r.TxID] = &txInfo{lastLSN: r.LSN}
		case wal.RecUpdate, wal.RecCLR, wal.RecAbort:
			if ti := att[r.TxID]; ti != nil {
				ti.lastLSN = r.LSN
			} else {
				att[r.TxID] = &txInfo{lastLSN: r.LSN}
			}
		case wal.RecCommit:
			if ti := att[r.TxID]; ti != nil {
				ti.committed = true
			} else {
				att[r.TxID] = &txInfo{lastLSN: r.LSN, committed: true}
			}
		case wal.RecEnd:
			if ti := att[r.TxID]; ti != nil {
				ti.ended = true
			}
		case wal.RecCheckpoint:
			// Transactions active at the checkpoint that never logged
			// again still need entries.
			for id, last := range r.ActiveTxs {
				if _, ok := att[id]; !ok {
					att[id] = &txInfo{lastLSN: last}
				}
			}
		}
		return true
	})

	// --- Redo ---------------------------------------------------------
	var redoErr error
	db.log.Scan(db.log.Tail(), func(r wal.Record) bool {
		if r.Type != wal.RecUpdate && r.Type != wal.RecCLR {
			return true
		}
		applied, err := db.redoOne(w, r)
		if err != nil {
			redoErr = fmt.Errorf("engine: redo LSN %d on page %d: %w", r.LSN, r.Page, err)
			return false
		}
		if applied {
			rep.RedoneOps++
		} else {
			rep.SkippedOps++
		}
		return true
	})
	if redoErr != nil {
		return rep, redoErr
	}

	// --- Undo ---------------------------------------------------------
	for id, ti := range att {
		if ti.ended {
			continue
		}
		if ti.committed {
			db.log.Append(wal.Record{Type: wal.RecEnd, TxID: id})
			rep.CompletedTxs++
			continue
		}
		if err := db.rollback(w, id, ti.lastLSN); err != nil {
			return rep, err
		}
		db.log.Append(wal.Record{Type: wal.RecEnd, TxID: id})
		rep.UndoneTxs++
	}
	db.log.Flush(db.log.Head())
	return rep, nil
}

// redoOne applies one logged operation if the page does not already
// reflect it (PageLSN guard). Runs with stateMu held exclusively — no
// other goroutine touches the page, but a change still needs the
// exclusive frame latch: that latch is what captures the frame's flushed
// image, and bytes redone without it would count as already stored and
// never be flushed. A record the guard skips takes it shared only, and
// copies nothing.
func (db *DB) redoOne(w *sim.Worker, r wal.Record) (bool, error) {
	st := db.pageDir.get(r.Page)
	if st == nil {
		return false, fmt.Errorf("page %d has no store", r.Page)
	}
	pg, err := db.pinRedo(w, st, r.Page, false)
	if err != nil {
		return false, err
	}
	if pg.LSN() >= r.LSN {
		return false, pg.unpin()
	}
	pg.unlatch()
	pg.latch(true)
	if err := applyOp(&pg.Page, r.Op, int(r.Slot), int(r.Off), r.After); err != nil {
		pg.unpin()
		return false, err
	}
	pg.SetLSN(r.LSN)
	return true, pg.unpinDirty(r.LSN)
}
