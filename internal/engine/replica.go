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
//  2. Redo it through the replay restart recovery runs too (redo,
//     recovery.go), with the page's exclusive frame latch held from the
//     start: under it the before-image goes into the version store as a
//     pending entry BEFORE the heap changes (installBefore).
//  3. Apply the physiological op only if PageLSN < record LSN.
//
// Commits register the (parity-known) commit LSN in the version
// store's in-flight set BEFORE the local append, so no concurrent
// snapshot can pin an LSN covering a commit whose chain entries are
// still being stamped.

// ErrApplyGap is returned when the shipped batch does not continue
// exactly at the applier's head — the node layer resyncs via snapshot.
var ErrApplyGap = errors.New("engine: replication stream out of sequence")

// Applier replays shipped WAL records into a follower engine. All
// methods must be called from a single goroutine (the node's apply
// loop); AppliedLSN alone is safe to read concurrently.
type Applier struct {
	db      *DB
	w       *sim.Worker
	txs     txTable
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
	a := &Applier{db: db, w: w}
	a.Resync()
	return a, nil
}

// AppliedLSN returns the LSN of the last record replayed (equals the
// local log head between Apply calls).
func (a *Applier) AppliedLSN() core.LSN { return core.LSN(a.applied.Load()) }

// Resync re-bases the applier after a snapshot install: transaction
// state restarts empty (every active transaction's records replay from
// its RecBegin, because the snapshot primes at min(active firstLSN)-1).
func (a *Applier) Resync() {
	a.txs = newTxTable()
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

// applyOne appends one record for parity, does what only a follower
// does with it, and hands it to the replay that restart recovery runs
// too: analysis, then redo of an update, CLR or allocation.
func (a *Applier) applyOne(rec wal.Record) error {
	db := a.db
	if rec.Type == wal.RecCommit && db.vs != nil {
		db.vs.registerInflight(rec.LSN)
		defer db.vs.finishCommit(rec.LSN)
	}
	if got := db.log.Append(rec); got != rec.LSN {
		return fmt.Errorf("%w: local append produced LSN %d for shipped LSN %d",
			ErrApplyGap, got, rec.LSN)
	}
	switch rec.Type {
	case wal.RecBegin:
		bumpAtomic(&db.nextTx, rec.TxID)

	case wal.RecTable:
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
		pid, owner, region, err := decodeAllocMeta(rec.Meta)
		if err != nil {
			return err
		}
		if err := checkWireID(pid, db.nextPage.Load()); err != nil {
			return err
		}
		st, err := db.attachRegion(region)
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

	case wal.RecCommit:
		if t := a.txs.open[rec.TxID]; t != nil && db.vs != nil {
			db.vs.stampCommitted(t.rids, rec.TxID, rec.LSN)
		}

	case wal.RecEnd:
		if t := a.txs.open[rec.TxID]; t != nil && t.aborted && db.vs != nil {
			// Mirror the primary's abort path: the rollback the CLRs
			// just replayed restored the before-images, so stamping
			// them at the end-record LSN keeps them true for any
			// snapshot pinned before the abort.
			db.vs.stampCommitted(t.rids, rec.TxID, rec.LSN)
		}
	}

	a.txs.analyze(rec)
	switch rec.Type {
	case wal.RecUpdate, wal.RecCLR, wal.RecAlloc:
		_, err := db.redo(a.w, rec, true)
		return err
	case wal.RecCheckpoint:
		// Follower-local truncation: the primary's checkpoint is the
		// signal, but the cut respects THIS engine's dirty pages and the
		// stream's open transactions.
		db.log.Flush(rec.LSN)
		cut := rec.LSN
		for _, r := range db.pool.DirtyPages() {
			if r != 0 && r < cut {
				cut = r
			}
		}
		for _, t := range a.txs.open {
			if t.firstLSN < cut {
				cut = t.firstLSN
			}
		}
		db.log.Truncate(cut)
	}
	return nil
}

// installBefore puts the before-image of a follower's update record into
// the version store as a pending entry, under the page's exclusive frame
// latch and BEFORE the heap changes — even when the PageLSN guard skips
// the change (apply false): a snapshot-primed follower's heap may
// already reflect the update, but the chain entry must exist so snapshot
// readers can resolve past it. The image is the record's Before for
// whole-tuple ops, this page's own tuple for an OpPatch (which ships
// only the bytes it changes), and rebuilt from the transaction's chain
// when the change is skipped (imageBeforeTx).
func (db *DB) installBefore(pg *page.Page, rec wal.Record, apply bool) {
	// The version store copies the image it is given: the page's tuple
	// and rec.Before (which aliases the shipped batch) stay the caller's.
	rid := core.RID{Page: rec.Page, Slot: rec.Slot}
	switch {
	case !apply:
		img, absent := db.imageBeforeTx(pg, rec)
		db.vs.setPending(rid, rec.TxID, img, absent)
	case rec.Op == wal.OpPatch:
		if tup, err := pg.ReadTuple(int(rec.Slot)); err == nil {
			db.vs.installPending(rid, rec.TxID, tup, false)
		}
	default:
		db.vs.installPending(rid, rec.TxID, rec.Before, rec.Op == wal.OpInsert)
	}
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
func (db *DB) imageBeforeTx(pg *page.Page, rec wal.Record) (img []byte, absent bool) {
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
		prev, err := db.log.Get(r.PrevLSN)
		if err != nil {
			return img, absent
		}
		r = prev
	}
}

// Promote finishes the follower's transition to primary with the loser
// pass restart recovery runs: a transaction whose commit record shipped
// is completed, whether or not its end record did — the cluster may
// have acknowledged it — and every other transaction still open in the
// stream belonged to the dead leader and is rolled back (RecAbort,
// CLRs, RecEnd). After Promote the engine serves reads and writes as a
// normal primary, its log continuing at the same LSNs the cluster
// already acknowledged.
func (a *Applier) Promote() error {
	db := a.db
	defer db.rlockState(a.w).RUnlock()
	if _, _, err := db.endOpen(a.w, &a.txs); err != nil {
		return fmt.Errorf("engine: promote: %w", err)
	}
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
