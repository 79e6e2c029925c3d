package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// This file is the follower half of log-shipping replication: an
// Applier that replays the primary's WAL records, in LSN order, into a
// local engine whose own log stays byte-identical to the primary's
// ("LSN parity"). Parity is what makes the whole design composable —
// the follower's log head IS its replication position, a promoted
// follower keeps appending where the primary stopped, and any
// divergence is detected as a parity violation instead of corrupting
// pages silently.
//
// Apply order per update record (the invariants snapshot readers rely
// on, mirrored from the primary's write path):
//
//  1. Append the record to the local log and assert the returned LSN
//     equals the shipped one.
//  2. Under the page's exclusive frame latch, install the before-image
//     as a pending version entry BEFORE touching the heap — even when
//     the PageLSN guard later skips the heap apply (a snapshot-primed
//     follower's heap may already reflect the update, but the chain
//     entry must exist so snapshot readers can resolve past it). The
//     image is the record's Before for whole-tuple ops, this page's own
//     tuple for an OpPatch (which ships only the bytes it changes), and
//     rebuilt from the transaction's chain when the apply is skipped
//     (imageBeforeTx).
//  3. Apply the physiological op only if PageLSN < record LSN.
//
// Commits register the (parity-known) commit LSN in the version
// store's in-flight set BEFORE the local append, so no concurrent
// snapshot can pin an LSN covering a commit whose chain entries are
// still being stamped.

// ErrApplyGap is returned when the shipped batch does not continue
// exactly at the applier's head — the node layer resyncs via snapshot.
var ErrApplyGap = errors.New("engine: replication stream out of sequence")

// applyTx tracks one in-flight transaction observed in the stream.
type applyTx struct {
	firstLSN core.LSN
	lastLSN  core.LSN
	rids     []core.RID
	ridSeen  map[core.RID]struct{}
	aborted  bool
}

// Applier replays shipped WAL records into a follower engine. All
// methods must be called from a single goroutine (the node's apply
// loop); AppliedLSN alone is safe to read concurrently.
type Applier struct {
	db      *DB
	w       *sim.Worker
	inTx    map[uint64]*applyTx
	byID    map[uint64]*Table // table-id cache for RecAlloc chaining
	applied atomic.Uint64
}

// NewApplier builds an applier over a follower engine. The engine must
// run with Options.Replicated (so a promotion writes a self-describing
// log for the next generation of followers).
func (db *DB) NewApplier(w *sim.Worker) (*Applier, error) {
	if !db.opts.Replicated {
		return nil, fmt.Errorf("%w: applier needs Options.Replicated", ErrBadOptions)
	}
	a := &Applier{
		db:   db,
		w:    w,
		inTx: make(map[uint64]*applyTx),
		byID: make(map[uint64]*Table),
	}
	a.applied.Store(uint64(db.log.Head()))
	return a, nil
}

// AppliedLSN returns the LSN of the last record replayed (equals the
// local log head between Apply calls).
func (a *Applier) AppliedLSN() core.LSN { return core.LSN(a.applied.Load()) }

// Resync re-bases the applier after a snapshot install: transaction
// state restarts empty (every active transaction's records replay from
// its RecBegin, because the snapshot primes at min(active firstLSN)-1).
func (a *Applier) Resync() {
	a.inTx = make(map[uint64]*applyTx)
	a.byID = make(map[uint64]*Table)
	a.applied.Store(uint64(a.db.log.Head()))
}

// Apply replays one contiguous batch. Records at or below the applied
// head are skipped (duplicate delivery after a reconnect); a gap above
// it fails with ErrApplyGap. The records' images and Meta may alias a
// buffer the caller reuses after Apply returns: the log, the page and
// the version store each take their own copy.
func (a *Applier) Apply(recs []wal.Record) error {
	db := a.db
	defer db.rlockState(a.w).RUnlock()
	if db.closed.Load() {
		return ErrClosed
	}
	for _, rec := range recs {
		head := core.LSN(a.applied.Load())
		if rec.LSN <= head {
			continue
		}
		if rec.LSN != head+1 {
			return fmt.Errorf("%w: got LSN %d at head %d", ErrApplyGap, rec.LSN, head)
		}
		if err := a.applyOne(rec); err != nil {
			return err
		}
		a.applied.Store(uint64(rec.LSN))
	}
	db.log.Flush(core.LSN(a.applied.Load()))
	return nil
}

// appendParity appends the record locally and asserts LSN parity.
func (a *Applier) appendParity(rec wal.Record) error {
	got := a.db.log.Append(rec)
	if got != rec.LSN {
		return fmt.Errorf("%w: local append produced LSN %d for shipped LSN %d",
			ErrApplyGap, got, rec.LSN)
	}
	return nil
}

// tx returns the stream state of a transaction, creating it lazily —
// a snapshot-primed join can first meet a transaction mid-life.
func (a *Applier) tx(id uint64, lsn core.LSN) *applyTx {
	t := a.inTx[id]
	if t == nil {
		t = &applyTx{firstLSN: lsn, ridSeen: make(map[core.RID]struct{})}
		a.inTx[id] = t
	}
	return t
}

func (a *Applier) applyOne(rec wal.Record) error {
	db := a.db
	switch rec.Type {
	case wal.RecBegin:
		if err := a.appendParity(rec); err != nil {
			return err
		}
		a.tx(rec.TxID, rec.LSN)
		bumpAtomic(&db.nextTx, rec.TxID)

	case wal.RecTable:
		if err := a.appendParity(rec); err != nil {
			return err
		}
		id, name, region, err := decodeTableMeta(rec.Meta)
		if err != nil {
			return err
		}
		t, err := db.restoreReplicaTable(name, region, id)
		if err != nil {
			return err
		}
		a.byID[id] = t

	case wal.RecAlloc:
		if err := a.appendParity(rec); err != nil {
			return err
		}
		pid, owner, region, err := decodeAllocMeta(rec.Meta)
		if err != nil {
			return err
		}
		if err := checkWireID(pid, db.nextPage.Load()); err != nil {
			return err
		}
		st, err := db.AttachRegion(region)
		if err != nil {
			return err
		}
		if err := db.pageDir.put(pid, st); err != nil {
			return err
		}
		bumpAtomic(&db.nextPage, uint64(pid))
		if owner != 0 {
			if t := a.tableByID(owner); t != nil {
				t.mu.Lock()
				t.pages = append(t.pages, pid)
				t.last = pid
				t.mu.Unlock()
			}
		}

	case wal.RecUpdate:
		t := a.tx(rec.TxID, rec.LSN)
		t.lastLSN = rec.LSN
		rid := core.RID{Page: rec.Page, Slot: rec.Slot}
		if _, seen := t.ridSeen[rid]; !seen {
			t.ridSeen[rid] = struct{}{}
			t.rids = append(t.rids, rid)
		}
		if err := a.appendParity(rec); err != nil {
			return err
		}
		return a.applyPageOp(rec, true)

	case wal.RecCLR:
		if t := a.inTx[rec.TxID]; t != nil {
			t.lastLSN = rec.LSN
		}
		if err := a.appendParity(rec); err != nil {
			return err
		}
		return a.applyPageOp(rec, false)

	case wal.RecCommit:
		if db.vs != nil {
			db.vs.registerInflight(rec.LSN)
		}
		if err := a.appendParity(rec); err != nil {
			if db.vs != nil {
				db.vs.finishCommit(rec.LSN)
			}
			return err
		}
		if t := a.inTx[rec.TxID]; t != nil && db.vs != nil {
			db.vs.stampCommitted(t.rids, rec.TxID, rec.LSN)
		}
		if db.vs != nil {
			db.vs.finishCommit(rec.LSN)
		}

	case wal.RecAbort:
		if err := a.appendParity(rec); err != nil {
			return err
		}
		a.tx(rec.TxID, rec.LSN).aborted = true

	case wal.RecEnd:
		if err := a.appendParity(rec); err != nil {
			return err
		}
		if t := a.inTx[rec.TxID]; t != nil {
			if t.aborted && db.vs != nil {
				// Mirror the primary's abort path: the rollback the CLRs
				// just replayed restored the before-images, so stamping
				// them at the end-record LSN keeps them true for any
				// snapshot pinned before the abort.
				db.vs.stampCommitted(t.rids, rec.TxID, rec.LSN)
			}
			delete(a.inTx, rec.TxID)
		}

	case wal.RecCheckpoint:
		if err := a.appendParity(rec); err != nil {
			return err
		}
		db.log.Flush(rec.LSN)
		// Follower-local truncation: the primary's checkpoint is the
		// signal, but the cut respects THIS engine's dirty pages and the
		// stream's in-flight transactions.
		cut := rec.LSN
		for _, r := range db.pool.DirtyPages() {
			if r != 0 && r < cut {
				cut = r
			}
		}
		for _, t := range a.inTx {
			if t.firstLSN < cut {
				cut = t.firstLSN
			}
		}
		db.log.Truncate(cut)

	default:
		// Unknown record types append for parity and are otherwise
		// ignored, the same stance restart analysis takes.
		return a.appendParity(rec)
	}
	return nil
}

// applyPageOp replays one physiological operation under the page's
// exclusive frame latch. install selects the pending-version hook
// (update records yes, CLRs no — the aborting transaction's entry is
// already in the chain and is stamped at its end record).
func (a *Applier) applyPageOp(rec wal.Record, install bool) error {
	db := a.db
	st := db.pageDir.get(rec.Page)
	if st == nil {
		return fmt.Errorf("engine: replicated op on unknown page %d (LSN %d)", rec.Page, rec.LSN)
	}
	pg, err := db.pinRedo(a.w, st, rec.Page, true)
	if err != nil {
		return err
	}
	redo := pg.LSN() < rec.LSN
	if install && db.vs != nil {
		// The version store keeps its image; rec.Before is the caller's.
		rid := core.RID{Page: rec.Page, Slot: rec.Slot}
		switch {
		case !redo:
			img, absent := a.imageBeforeTx(&pg.Page, rec)
			db.vs.setPending(rid, rec.TxID, img, absent)
		case rec.Op == wal.OpPatch:
			// An OpPatch ships only the bytes it changes; the whole
			// before-tuple is the one on this page, about to be patched.
			if tup, err := pg.ReadTuple(int(rec.Slot)); err == nil {
				db.vs.installPending(rid, rec.TxID, append([]byte(nil), tup...), false)
			}
		default:
			db.vs.installPending(rid, rec.TxID, append([]byte(nil), rec.Before...), rec.Op == wal.OpInsert)
		}
	}
	if !redo {
		return pg.unpin()
	}
	if err := applyOp(&pg.Page, rec.Op, int(rec.Slot), int(rec.Off), rec.After); err != nil {
		pg.unpin()
		return err
	}
	pg.SetLSN(rec.LSN)
	return pg.unpinDirty(rec.LSN)
}

// imageBeforeTx rebuilds the tuple at rec's RID as it was before rec's
// transaction touched it, for a record the PageLSN guard skips: a
// snapshot-primed page already reflects rec — and whatever else the
// transaction did to the tuple up to the snapshot's capture, which an
// OpPatch's few bytes of before-image cannot undo alone. So the page's
// tuple is walked back through the transaction's records, newest first,
// along the chain in the follower's own log (a snapshot primes below
// the first record of every transaction in flight, so the chain is
// whole). Each skipped record of the transaction on the tuple redoes
// the walk from itself, so the image is exact once the stream has
// replayed the last of them. Changes another, already committed
// transaction made to the tuple between the prime point and the capture
// stay in the image; they matter only to a snapshot pinned before the
// stream has replayed them.
func (a *Applier) imageBeforeTx(pg *page.Page, rec wal.Record) (img []byte, absent bool) {
	if tup, err := pg.ReadTuple(int(rec.Slot)); err == nil {
		img = append([]byte(nil), tup...)
	}
	for r := rec; ; {
		if r.Type == wal.RecUpdate && r.Page == rec.Page && r.Slot == rec.Slot {
			switch r.Op {
			case wal.OpPatch:
				if int(r.Off)+len(r.Before) <= len(img) {
					copy(img[r.Off:], r.Before)
				}
			case wal.OpUpdate, wal.OpDelete:
				img, absent = append([]byte(nil), r.Before...), false
			case wal.OpInsert:
				img, absent = nil, true
			}
		}
		if r.PrevLSN == 0 {
			return img, absent
		}
		prev, err := a.db.log.Get(r.PrevLSN)
		if err != nil {
			return img, absent
		}
		r = prev
	}
}

// Promote finishes the follower's transition to primary: every
// transaction still open in the stream belonged to the dead leader and
// is rolled back through the normal ARIES path (RecAbort, CLRs,
// RecEnd), exactly as restart undo treats losers. After Promote the
// engine serves reads and writes as a normal primary, its log
// continuing at the same LSNs the cluster already acknowledged.
func (a *Applier) Promote() error {
	db := a.db
	defer db.rlockState(a.w).RUnlock()
	for id, t := range a.inTx {
		db.log.Append(wal.Record{Type: wal.RecAbort, TxID: id, PrevLSN: t.lastLSN})
		if err := db.rollback(a.w, id, t.lastLSN); err != nil {
			return fmt.Errorf("engine: promote rollback tx %d: %w", id, err)
		}
		endLSN := db.log.Append(wal.Record{Type: wal.RecEnd, TxID: id})
		if db.vs != nil {
			db.vs.stampCommitted(t.rids, id, endLSN)
		}
		delete(a.inTx, id)
	}
	db.log.Flush(db.log.Head())
	a.applied.Store(uint64(db.log.Head()))
	return nil
}

// restoreReplicaTable registers a table shipped through the stream (or
// a snapshot), preserving the primary's table id.
func (db *DB) restoreReplicaTable(name, regionName string, id uint64) (*Table, error) {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	st, err := db.attachRegionLocked(regionName)
	if err != nil {
		return nil, err
	}
	t := &Table{db: db, st: st, name: name, id: id}
	db.tables[name] = t
	return t, nil
}

// tableByID resolves a table by its stream id through the applier's
// cache, falling back to a catalog sweep (first RecAlloc after a
// snapshot install, where the cache starts cold).
func (a *Applier) tableByID(id uint64) *Table {
	if t := a.byID[id]; t != nil {
		return t
	}
	db := a.db
	db.catMu.Lock()
	defer db.catMu.Unlock()
	for _, t := range db.tables {
		if t.id == id {
			a.byID[id] = t
			return t
		}
	}
	return nil
}

// bumpAtomic raises a monotonic counter to at least v.
func bumpAtomic(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// --- self-description payloads (RecAlloc / RecTable Meta) ------------

// encodeAllocMeta packs a page allocation: page id, owning object id
// (table id, or 0 for index pages) and region name.
func encodeAllocMeta(pid core.PageID, owner uint64, region string) []byte {
	buf := make([]byte, 0, 18+len(region))
	buf = binary.BigEndian.AppendUint64(buf, uint64(pid))
	buf = binary.BigEndian.AppendUint64(buf, owner)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(region)))
	return append(buf, region...)
}

func decodeAllocMeta(meta []byte) (pid core.PageID, owner uint64, region string, err error) {
	if len(meta) < 18 {
		return 0, 0, "", fmt.Errorf("engine: short alloc meta (%d bytes)", len(meta))
	}
	pid = core.PageID(binary.BigEndian.Uint64(meta[0:8]))
	owner = binary.BigEndian.Uint64(meta[8:16])
	n := int(binary.BigEndian.Uint16(meta[16:18]))
	if len(meta) < 18+n {
		return 0, 0, "", fmt.Errorf("engine: truncated alloc meta")
	}
	return pid, owner, string(meta[18 : 18+n]), nil
}

// encodeTableMeta packs a table creation: id, name, region name.
func encodeTableMeta(id uint64, name, region string) []byte {
	buf := make([]byte, 0, 12+len(name)+len(region))
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(region)))
	return append(buf, region...)
}

func decodeTableMeta(meta []byte) (id uint64, name, region string, err error) {
	if len(meta) < 10 {
		return 0, "", "", fmt.Errorf("engine: short table meta (%d bytes)", len(meta))
	}
	id = binary.BigEndian.Uint64(meta[0:8])
	n := int(binary.BigEndian.Uint16(meta[8:10]))
	if len(meta) < 10+n+2 {
		return 0, "", "", fmt.Errorf("engine: truncated table meta")
	}
	name = string(meta[10 : 10+n])
	off := 10 + n
	rn := int(binary.BigEndian.Uint16(meta[off : off+2]))
	if len(meta) < off+2+rn {
		return 0, "", "", fmt.Errorf("engine: truncated table meta region")
	}
	return id, name, string(meta[off+2 : off+2+rn]), nil
}
