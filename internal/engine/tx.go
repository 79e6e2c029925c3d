package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// Tx status values.
type txStatus int

const (
	txActive txStatus = iota
	txCommitted
	txAborted
	txReleased // handed back by Release: in the free pool, emptied
)

// ErrTxClosed is returned when operating on a finished transaction.
var ErrTxClosed = errors.New("engine: transaction already closed")

// ErrTxActive is returned by Release for a transaction that has not
// ended.
var ErrTxActive = errors.New("engine: transaction still active")

// ErrLockConflict is returned when a tuple is exclusively locked by
// another active transaction. Locking is no-wait (immediate failure), so
// deadlocks cannot arise; callers abort and retry.
var ErrLockConflict = errors.New("engine: tuple locked by another transaction")

// Snapshot-transaction errors.
var (
	// ErrMVCCDisabled is returned by BeginSnapshot when the instance was
	// opened without Options.MVCC.
	ErrMVCCDisabled = errors.New("engine: MVCC disabled (Options.MVCC)")
	// ErrReadOnlyTx is returned when a snapshot transaction attempts a
	// write (or a locking read).
	ErrReadOnlyTx = errors.New("engine: snapshot transaction is read-only")
	// ErrNotSnapshot is returned by ReadSnapshot/ScanSnapshot when the
	// transaction is not a snapshot transaction.
	ErrNotSnapshot = errors.New("engine: not a snapshot transaction")
)

// atomicLSN is an LSN readable by other goroutines (fuzzy checkpoints
// snapshot active transactions without stopping them).
type atomicLSN struct{ v atomic.Uint64 }

func (a *atomicLSN) load() core.LSN   { return core.LSN(a.v.Load()) }
func (a *atomicLSN) store(l core.LSN) { a.v.Store(uint64(l)) }

// Tx is a transaction handle. A transaction belongs to one simulated
// worker (terminal) and one goroutine; distinct transactions on the same
// DB run concurrently. Updates are WAL-logged with undo images, so Abort
// rolls back via the normal ARIES path — which, with IPA, may read pages
// whose uncommitted changes live in delta-records on flash (Sec. 6.2,
// rollback discussion).
//
// Lifetime: a handle lives from Begin (or BeginSnapshot) until its
// caller calls Release once the transaction has ended — Commit, or an
// Abort that succeeded — which hands the handle back for a later Begin
// or BeginSnapshot, of any DB, to reuse. After Release nothing of the
// handle may be touched, CommitLSN included: read what is needed first.
// Release refuses a transaction that is still active (ErrTxActive),
// among them one whose Abort failed midway. A caller that never
// releases loses nothing but the reuse: the collector takes the handle.
type Tx struct {
	id       uint64
	db       *DB
	w        *sim.Worker
	firstLSN core.LSN
	lastLSN  atomicLSN
	status   txStatus
	updates  int
	held     []core.RID // exclusive locks, released at commit/abort
	// heldBuf backs held for the first locks: a TPC-B transaction takes
	// four, which then cost no allocation beyond the Tx.
	heldBuf [4]core.RID

	// Snapshot transactions (BeginSnapshot): read-only, pinned at
	// snapshot — they write no WAL records, hold no locks and are not in
	// the active-transaction table (no checkpoint footprint).
	readOnly bool
	snapshot core.LSN

	// lockConflict records that the transaction hit ErrLockConflict, so
	// Abort can account the abort to the right reason.
	lockConflict bool

	// commitLSN is set by Commit; the replication layer waits for it to
	// reach a quorum of followers before acking the client.
	commitLSN core.LSN

	// word holds the sum AddField computes while the log copies it: a
	// slice handed to wal.Append counts as escaping, so a stack array
	// would cost an allocation per call.
	word [8]byte
}

// Begin starts a transaction bound to the worker (nil is fine for
// untimed use). After Close it returns ErrClosed — deterministically,
// because the closed flag is raised under the state latch Begin holds
// shared.
func (db *DB) Begin(w *sim.Worker) (*Tx, error) {
	defer db.rlockState(w).RUnlock()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	tx := db.newTx(w, false)
	tx.firstLSN = db.log.Append(wal.Record{Type: wal.RecBegin, TxID: tx.id})
	tx.lastLSN.store(tx.firstLSN)
	s := db.active.Of(w)
	s.mu.Lock()
	if s.txs == nil {
		s.txs = make(map[uint64]*Tx)
	}
	s.txs[tx.id] = tx
	s.mu.Unlock()
	return tx, nil
}

// txFree holds the handles callers released (Tx.Release) for Begin and
// BeginSnapshot to reuse. It is one pool for every DB, and a released
// handle keeps no reference: a sync.Pool inside the DB would sit on the
// runtime's list of pools, which keeps the pool — and with it the whole
// DB it is a field of — reachable for a garbage collection after its
// last use, so a closed instance would outlive its Close by a cycle.
var txFree sync.Pool

// newTx returns a handle for a new transaction: a released one from the
// free pool, or a fresh one. Either way it is initialised in full —
// nothing of the transaction a recycled handle served survives.
func (db *DB) newTx(w *sim.Worker, readOnly bool) *Tx {
	tx, _ := txFree.Get().(*Tx)
	if tx == nil {
		tx = new(Tx)
	}
	*tx = Tx{id: db.nextTx.Add(1), db: db, w: w, readOnly: readOnly}
	tx.held = tx.heldBuf[:0]
	return tx
}

// Release hands an ended transaction's handle back for reuse (see the
// Tx lifetime rule). An active transaction is refused with ErrTxActive,
// a second Release of one handle with ErrTxClosed.
func (tx *Tx) Release() error {
	switch tx.status {
	case txActive:
		return fmt.Errorf("%w: tx %d", ErrTxActive, tx.id)
	case txReleased:
		return fmt.Errorf("%w: handle released twice", ErrTxClosed)
	}
	*tx = Tx{status: txReleased}
	txFree.Put(tx)
	return nil
}

// txStripe is one stripe of the active-transaction table.
type txStripe struct {
	mu  sync.Mutex
	txs map[uint64]*Tx
}

// end removes the transaction from the active-transaction table.
func (tx *Tx) end() {
	s := tx.db.active.Of(tx.w)
	s.mu.Lock()
	delete(s.txs, tx.id)
	s.mu.Unlock()
}

// eachActive calls fn for every transaction in the active-transaction
// table, one stripe at a time under that stripe's mutex: a fuzzy snapshot,
// as the checkpoint's has always been.
func (db *DB) eachActive(fn func(*Tx)) {
	for i := range sim.Stripes {
		s := db.active.At(i)
		s.mu.Lock()
		for _, tx := range s.txs {
			fn(tx)
		}
		s.mu.Unlock()
	}
}

// resetActive empties the active-transaction table (crash, snapshot
// install).
func (db *DB) resetActive() {
	for i := range sim.Stripes {
		s := db.active.At(i)
		s.mu.Lock()
		s.txs = nil
		s.mu.Unlock()
	}
}

// BeginSnapshot starts a read-only transaction pinned at a snapshot
// LSN: every commit at or below the snapshot is fully visible, every
// later (or in-flight) change invisible. Snapshot transactions resolve
// reads through the MVCC version store (Table.ReadSnapshot /
// Table.ScanSnapshot), never touch the lock table, never block writers
// and never abort on conflict. They write no WAL records; Commit and
// Abort both simply release the snapshot pin. Requires Options.MVCC.
func (db *DB) BeginSnapshot(w *sim.Worker) (*Tx, error) {
	defer db.rlockState(w).RUnlock()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if db.vs == nil {
		return nil, ErrMVCCDisabled
	}
	tx := db.newTx(w, true)
	tx.snapshot = db.vs.beginSnapshot(tx.id, db.log.Head)
	return tx, nil
}

// SnapshotLSN returns the pinned snapshot LSN (0 for ordinary
// transactions).
func (tx *Tx) SnapshotLSN() core.LSN { return tx.snapshot }

// CommitLSN returns the LSN of the transaction's commit record (0 until
// Commit succeeds, and always 0 for read-only snapshot transactions).
// The server's quorum wait keys on it.
func (tx *Tx) CommitLSN() core.LSN { return tx.commitLSN }

// writable reports why tx may not write or lock: it has ended, or it is
// a read-only snapshot.
func (tx *Tx) writable() error {
	if tx.status != txActive {
		return fmt.Errorf("%w: tx %d", ErrTxClosed, tx.id)
	}
	if tx.readOnly {
		return fmt.Errorf("%w: tx %d", ErrReadOnlyTx, tx.id)
	}
	return nil
}

// lockRID acquires (or re-acquires) the exclusive tuple lock through the
// sharded no-wait lock table.
func (tx *Tx) lockRID(rid core.RID) error {
	ok, fresh, owner := tx.db.locks.acquire(rid, tx.id)
	if !ok {
		tx.lockConflict = true
		tx.db.lockConflicts.Add(1)
		return fmt.Errorf("%w: %v held by tx %d", ErrLockConflict, rid, owner)
	}
	if fresh {
		tx.held = append(tx.held, rid)
	}
	return nil
}

// releaseLocks drops every lock the transaction holds.
func (tx *Tx) releaseLocks() {
	tx.db.locks.releaseAll(tx.held, tx.id)
	tx.held = nil
}

// logUpdate appends an update record and chains it. The caller holds the
// latch of the page being modified, which orders WAL appends and page
// applications identically per page (the PageLSN invariant redo relies
// on). The images are passed through uncopied: wal.Append copies them
// once, into log-owned arena storage, so this path performs no
// intermediate allocation.
func (tx *Tx) logUpdate(pg core.PageID, op wal.PageOp, slot, off int, before, after []byte) core.LSN {
	lsn := tx.db.log.Append(wal.Record{
		Type: wal.RecUpdate, TxID: tx.id, PrevLSN: tx.lastLSN.load(),
		Page: pg, Op: op, Slot: uint16(slot), Off: uint16(off),
		Before: before,
		After:  after,
	})
	tx.lastLSN.store(lsn)
	tx.updates++
	return lsn
}

// Commit makes the transaction durable: the commit record is forced to
// the log via group flush (no-force for data pages) and the transaction
// ends. Commits of different transactions serialise only on the WAL's
// own mutex.
func (tx *Tx) Commit() error {
	db := tx.db
	if tx.status != txActive {
		return fmt.Errorf("%w: tx %d", ErrTxClosed, tx.id)
	}
	if tx.readOnly {
		tx.status = txCommitted
		db.vs.endSnapshot(tx.id)
		return nil
	}
	defer db.rlockState(tx.w).RUnlock()
	var lsn core.LSN
	if db.vs != nil && len(tx.held) > 0 {
		// MVCC: allocate the commit LSN and register it in-flight in one
		// step, stamp every pending before-image with it, then retire the
		// registration — all before locks release, so per-RID chains stay
		// ordered and no snapshot observes a half-stamped commit.
		lsn = db.vs.commitAppend(db.log, tx.id, tx.lastLSN.load())
		db.vs.stampCommitted(tx.held, tx.id, lsn)
		db.vs.finishCommit(lsn)
	} else {
		lsn = db.log.Append(wal.Record{Type: wal.RecCommit, TxID: tx.id, PrevLSN: tx.lastLSN.load()})
	}
	db.log.GroupFlush(lsn)
	db.log.Append(wal.Record{Type: wal.RecEnd, TxID: tx.id, PrevLSN: lsn})
	tx.status = txCommitted
	tx.commitLSN = lsn
	tx.releaseLocks()
	tx.end()
	return db.maybeReclaim(tx.w)
}

// Abort rolls the transaction back: its update chain is walked backwards,
// each change is undone through the regular page path (so undo data may
// come from delta-records on flash), CLRs are written, and the
// transaction ends.
func (tx *Tx) Abort() error {
	db := tx.db
	if tx.status != txActive {
		return fmt.Errorf("%w: tx %d", ErrTxClosed, tx.id)
	}
	if tx.readOnly {
		tx.status = txAborted
		db.vs.endSnapshot(tx.id)
		return nil
	}
	defer db.rlockState(tx.w).RUnlock()
	db.log.Append(wal.Record{Type: wal.RecAbort, TxID: tx.id, PrevLSN: tx.lastLSN.load()})
	if err := db.rollback(tx.w, tx.id, tx.lastLSN.load()); err != nil {
		return err
	}
	endLSN := db.log.Append(wal.Record{Type: wal.RecEnd, TxID: tx.id})
	tx.status = txAborted
	if db.vs != nil && len(tx.held) > 0 {
		// Stamp pending before-images with the end-record LSN rather than
		// dropping them. The entry's claim — "before this LSN the value
		// was the before-image" — is exactly what the rollback restored,
		// so it is true for aborts too, and it must stay in the chain: a
		// snapshot reader may have copied heap state containing this
		// transaction's uncommitted writes just before the rollback, and
		// only the chain entry stops it from resolving them (snapshots
		// pinned before this abort have S < endLSN and get the override;
		// later ones read the restored heap). The entry prunes normally
		// once no snapshot predates the abort. Stamping happens after the
		// heap rollback and before locks release, so the next writer's
		// entries still land strictly newer.
		db.vs.stampCommitted(tx.held, tx.id, endLSN)
	}
	if tx.lockConflict {
		db.abortsLock.Add(1)
	} else {
		db.abortsExplicit.Add(1)
	}
	tx.releaseLocks()
	tx.end()
	return nil
}

// rollback undoes a transaction's updates starting from lastLSN, writing
// a CLR per undone record. Shared by Abort (stateMu held shared) and
// restart undo (stateMu held exclusively).
func (db *DB) rollback(w *sim.Worker, txID uint64, from core.LSN) error {
	cur := from
	for cur != 0 {
		rec, err := db.log.Get(cur)
		if err != nil {
			return fmt.Errorf("engine: rollback tx %d at LSN %d: %w", txID, cur, err)
		}
		switch rec.Type {
		case wal.RecUpdate:
			if err := db.undoOne(w, txID, rec); err != nil {
				return err
			}
			cur = rec.PrevLSN
		case wal.RecCLR:
			cur = rec.UndoNext
		default:
			cur = rec.PrevLSN
		}
	}
	return nil
}

// undoOne compensates one update record: the CLR is appended and applied
// under the page's latch, so the CLR's LSN is stamped in append order.
func (db *DB) undoOne(w *sim.Worker, txID uint64, rec wal.Record) error {
	st := db.pageDir.get(rec.Page)
	if st == nil {
		return fmt.Errorf("engine: undo on unknown page %d", rec.Page)
	}
	pg, err := db.pinPage(w, st, rec.Page, true)
	if err != nil {
		return err
	}
	undoOp, undoImg := invertOp(rec)
	clr := db.log.Append(wal.Record{
		Type: wal.RecCLR, TxID: txID,
		Page: rec.Page, Op: undoOp, Slot: rec.Slot, Off: rec.Off, After: undoImg,
		UndoNext: rec.PrevLSN,
	})
	if err := applyOp(&pg.Page, undoOp, int(rec.Slot), int(rec.Off), undoImg); err != nil {
		pg.unpin()
		return err
	}
	pg.SetLSN(clr)
	return pg.unpinDirty(clr)
}

// invertOp returns the compensating operation for an update record.
func invertOp(rec wal.Record) (wal.PageOp, []byte) {
	switch rec.Op {
	case wal.OpInsert:
		return wal.OpDelete, nil
	case wal.OpDelete:
		return wal.OpInsert, rec.Before
	case wal.OpUpdate:
		return wal.OpUpdate, rec.Before
	case wal.OpPatch:
		return wal.OpPatch, rec.Before
	default:
		return wal.OpNone, nil
	}
}

// applyOp performs a physiological page operation: redo of an update
// record or a CLR, and the undo a CLR describes. off is read by OpPatch
// only. A patch that does not fit the tuple the page holds — a log that
// is not this page's history — is an error, never a write.
func applyOp(pg *page.Page, op wal.PageOp, slot, off int, img []byte) error {
	switch op {
	case wal.OpInsert:
		return pg.InsertAt(slot, img)
	case wal.OpUpdate:
		return pg.Update(slot, img)
	case wal.OpDelete:
		return pg.Delete(slot)
	case wal.OpPatch:
		tup, err := pg.ReadTuple(slot)
		if err != nil {
			return err
		}
		if off+len(img) > len(tup) {
			return fmt.Errorf("engine: patch [%d,%d) outside tuple of %d bytes", off, off+len(img), len(tup))
		}
		copy(tup[off:], img)
		return nil
	case wal.OpNone:
		return nil
	default:
		return fmt.Errorf("engine: unknown page op %d", op)
	}
}
