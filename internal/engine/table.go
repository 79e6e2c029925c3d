package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// Table errors.
var (
	ErrTableExists = errors.New("engine: table already exists")
	ErrNoTable     = errors.New("engine: no such table")
	ErrNoTuple     = errors.New("engine: no tuple at RID")
)

// Table is a heap file of slotted pages in one region (tablespace). The
// region decides whether the table's small updates become In-Place
// Appends — the paper's selective application of IPA per database object.
//
// Concurrency: RID-addressed operations (Read/Update/Delete) synchronise
// only on the tuple lock and the page's frame latch, so updates to
// different pages proceed in parallel. Insert additionally holds the
// table mutex, which guards the heap chain (pages, last) and serialises
// the choice of the shared insertion target, but not across the Unpin
// that can run a cleaner pass (see Insert).
type Table struct {
	db   *DB
	st   *PageStore
	name string
	id   uint64

	mu    sync.Mutex
	pages []core.PageID // heap chain, in allocation order
	last  core.PageID   // current insertion target
}

// CreateTable creates a heap table placed in the named region.
func (db *DB) CreateTable(name, regionName string) (*Table, error) {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	st, err := db.attachRegionLocked(regionName)
	if err != nil {
		return nil, err
	}
	t := &Table{db: db, st: st, name: name, id: uint64(len(db.tables) + 1)}
	db.tables[name] = t
	if db.opts.Replicated {
		db.log.Append(wal.Record{Type: wal.RecTable, Meta: encodeTableMeta(t.id, name, regionName)})
	}
	return t, nil
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Insert appends a tuple, logging the operation under tx. The table
// mutex is held while the insertion target is chosen and changed, and
// released before the page's dirty Unpin, which may run a cleaner pass,
// and before a log reclaim, which flushes and checkpoints: the page's
// exclusive latch, held to that Unpin, serialises the insert itself.
func (t *Table) Insert(tx *Tx, data []byte) (core.RID, error) {
	db := t.db
	if err := tx.writable(); err != nil {
		return core.RID{}, err
	}
	defer db.rlockState(tx.w).RUnlock()
	sim.Lock(&t.mu)
	pg, rid, lsn, chained, err := t.insertLocked(tx, data)
	t.mu.Unlock()
	if err != nil {
		return core.RID{}, err
	}
	if err := pg.unpinDirty(lsn); err != nil || !chained {
		return rid, err
	}
	return rid, db.maybeReclaim(tx.w)
}

// insertLocked inserts data into the current insertion target, or into a
// fresh page it chains when the target is full, and returns that page
// still exclusively latched, with the new row's RID and the LSN to
// release it dirty with; chained says a fresh page was chained. On error
// it holds nothing. Caller holds stateMu shared and t.mu.
func (t *Table) insertLocked(tx *Tx, data []byte) (pg pageRef, rid core.RID, lsn core.LSN, chained bool, err error) {
	db := t.db
	// Try the current insertion target first.
	if t.last != core.InvalidPageID {
		if pg, err = db.pinPage(tx.w, t.st, t.last, true); err != nil {
			return pageRef{}, core.RID{}, 0, false, err
		}
		rid, lsn, err = t.insertInto(tx, pg, data)
		if !errors.Is(err, page.ErrPageFull) {
			return pg, rid, lsn, false, err
		}
	}
	// Allocate a fresh page and chain it. Its latch is dropped while the
	// previous tail is fetched: a frame latch is not held across a fetch.
	if pg, err = db.newPage(tx.w, t.st, t.id, 0); err != nil {
		return pageRef{}, core.RID{}, 0, false, err
	}
	pg.unlatch()
	id := pg.fr.ID
	if t.last != core.InvalidPageID {
		if err := t.setNext(tx.w, t.last, id); err != nil {
			pg.unpin()
			return pageRef{}, core.RID{}, 0, false, err
		}
	}
	t.pages = append(t.pages, id)
	t.last = id
	pg.latch(true)
	rid, lsn, err = t.insertInto(tx, pg, data)
	return pg, rid, lsn, true, err
}

// insertInto inserts into the exclusively latched page pg and logs the
// insert, leaving pg to the caller to release dirty with the returned
// LSN; on error it releases pg. Caller holds stateMu shared and t.mu.
func (t *Table) insertInto(tx *Tx, pg pageRef, data []byte) (core.RID, core.LSN, error) {
	db := t.db
	slot, err := pg.Insert(data)
	if err != nil {
		pg.unpin()
		return core.RID{}, 0, err
	}
	rid := core.RID{Page: pg.fr.ID, Slot: uint16(slot)}
	// page.Insert reuses a slot that a transaction still rolling back has
	// freed on the page but holds locked until it ends. That is no
	// conflict of this transaction's making (so not lockRID, which would
	// count one and mark the transaction): the slot goes back and the page
	// counts as full, which moves Insert on to a fresh page, whose RIDs
	// nobody can hold.
	ok, fresh, owner := db.locks.acquire(rid, tx.id)
	if !ok {
		pg.Delete(slot)
		pg.unpin()
		return core.RID{}, 0, fmt.Errorf("%w: free slot %v is locked by tx %d", page.ErrPageFull, rid, owner)
	}
	if fresh {
		tx.held = append(tx.held, rid)
	}
	if db.vs != nil {
		db.vs.installPending(rid, tx.id, nil, true)
	}
	lsn := tx.logUpdate(rid.Page, wal.OpInsert, slot, 0, nil, data)
	pg.SetLSN(lsn)
	return rid, lsn, nil
}

// setNext updates the heap chain pointer of a page (metadata-only
// change, itself absorbed as a delta when flushed). Caller holds stateMu
// shared.
func (t *Table) setNext(w *sim.Worker, id, next core.PageID) error {
	pg, err := t.db.pinPage(w, t.st, id, true)
	if err != nil {
		return err
	}
	pg.SetNextPage(next)
	return pg.unpinDirty(pg.LSN())
}

// Read copies the tuple at rid.
func (t *Table) Read(w *sim.Worker, rid core.RID) ([]byte, error) {
	return t.AppendTuple(w, rid, nil)
}

// AppendTuple appends the tuple at rid to dst and returns the extended
// buffer (dst unchanged on error): a read that reuses the caller's
// buffer.
func (t *Table) AppendTuple(w *sim.Worker, rid core.RID, dst []byte) ([]byte, error) {
	db := t.db
	defer db.rlockState(w).RUnlock()
	return t.readHeap(w, rid, dst)
}

// readHeap appends the current heap tuple at rid to dst under the page's
// shared latch. Caller holds stateMu shared.
func (t *Table) readHeap(w *sim.Worker, rid core.RID, dst []byte) ([]byte, error) {
	pg, err := t.db.pinPage(w, t.st, rid.Page, false)
	if err != nil {
		return dst, err
	}
	tup, err := pg.ReadTuple(int(rid.Slot))
	if err != nil {
		pg.unpin()
		return dst, fmt.Errorf("%w: %v: %v", ErrNoTuple, rid, err)
	}
	dst = append(dst, tup...)
	pg.unpin()
	return dst, nil
}

// ReadLocked reads the tuple at rid under the tuple's exclusive no-wait
// lock, held to commit/abort — the "locking read" baseline the MVCC
// snapshot path is measured against. Repeatable within the transaction;
// fails immediately with ErrLockConflict when a writer holds the tuple.
func (t *Table) ReadLocked(tx *Tx, rid core.RID) ([]byte, error) {
	db := t.db
	if err := tx.writable(); err != nil {
		return nil, err
	}
	defer db.rlockState(tx.w).RUnlock()
	if err := tx.lockRID(rid); err != nil {
		return nil, err
	}
	return t.readHeap(tx.w, rid, nil)
}

// ReadSnapshot reads the tuple at rid as of the snapshot transaction's
// pinned LSN, resolving through the MVCC version store. The heap tuple
// is read first (under the page's shared latch) and the version chain
// consulted after — the order that guarantees any concurrent writer's
// before-image is found if the heap shows its uncommitted change. The
// tuple returned is the one copy made: of the heap, or the version
// store's of the image it resolved.
func (t *Table) ReadSnapshot(tx *Tx, rid core.RID) ([]byte, error) {
	db := t.db
	if tx.status != txActive {
		return nil, fmt.Errorf("%w: tx %d", ErrTxClosed, tx.id)
	}
	if !tx.readOnly || db.vs == nil {
		return nil, fmt.Errorf("%w: tx %d", ErrNotSnapshot, tx.id)
	}
	defer db.rlockState(tx.w).RUnlock()
	db.vs.snapReads.Add(1)
	heap, heapErr := t.readHeap(tx.w, rid, nil)
	data, absent, override := db.vs.resolve(rid, tx.snapshot)
	if override {
		if absent {
			return nil, fmt.Errorf("%w: %v (not visible at snapshot LSN %d)", ErrNoTuple, rid, tx.snapshot)
		}
		return data, nil
	}
	return heap, heapErr
}

// ScanBuf is a scan's copy of one heap page's tuples, reused page after
// page: tups has one entry per slot, nil for a deleted slot (a live
// tuple is never empty), each aliasing buf. A caller that scans again
// and again — a server session serving a table page by page — keeps one
// and hands it to every ScanAfter or ScanSnapshot, so that a scan
// allocates nothing once it has grown to a page's tuples. The zero value
// is ready; a nil one gives the scan a buffer of its own. One scan at a
// time may use it.
type ScanBuf struct {
	buf  []byte
	tups [][]byte
}

// load copies the tuples of heap page id under its shared latch,
// overwriting the previous page's.
func (ps *ScanBuf) load(t *Table, w *sim.Worker, id core.PageID) error {
	db := t.db
	defer db.rlockState(w).RUnlock()
	pg, err := db.pinPage(w, t.st, id, false)
	if err != nil {
		return err
	}
	n, size := pg.SlotCount(), 0
	for s := 0; s < n; s++ {
		if tup, err := pg.ReadTuple(s); err == nil {
			size += len(tup)
		}
	}
	if cap(ps.buf) < size {
		ps.buf = make([]byte, 0, size)
	}
	// buf has room for every tuple, so appending never moves the
	// entries already taken.
	ps.buf, ps.tups = ps.buf[:0], ps.tups[:0]
	for s := 0; s < n; s++ {
		tup, err := pg.ReadTuple(s)
		if err != nil {
			ps.tups = append(ps.tups, nil)
			continue
		}
		start := len(ps.buf)
		ps.buf = append(ps.buf, tup...)
		ps.tups = append(ps.tups, ps.buf[start:len(ps.buf):len(ps.buf)])
	}
	pg.unpin()
	return nil
}

// heapPages returns the heap chain as it stands, without copying it:
// the chain only grows by append (or is replaced whole by a snapshot
// install), so the ids of the slice returned never change. Page ids
// come from one counter and the chain grows under t.mu, so it is in
// ascending id order.
func (t *Table) heapPages() []core.PageID {
	sim.Lock(&t.mu)
	defer t.mu.Unlock()
	return t.pages[:len(t.pages):len(t.pages)]
}

// scanSlots copies the heap pages one at a time into ps, from the page
// of after on, and hands fn every slot strictly after after — nil for an
// empty slot — in ascending RID order, until fn returns false. The zero
// RID starts at the beginning: page 0 is never allocated.
func (t *Table) scanSlots(w *sim.Worker, after core.RID, ps *ScanBuf, fn func(rid core.RID, tuple []byte) bool) error {
	pages := t.heapPages()
	if ps == nil {
		ps = new(ScanBuf)
	}
	for i := sort.Search(len(pages), func(i int) bool { return pages[i] >= after.Page }); i < len(pages); i++ {
		id := pages[i]
		if err := ps.load(t, w, id); err != nil {
			return err
		}
		s := 0
		if id == after.Page {
			s = int(after.Slot) + 1
		}
		for ; s < len(ps.tups); s++ {
			if !fn(core.RID{Page: id, Slot: uint16(s)}, ps.tups[s]) {
				return nil
			}
		}
	}
	return nil
}

// ScanSnapshot visits every tuple visible at the snapshot transaction's
// pinned LSN strictly after the RID after (the zero RID: every tuple),
// in ascending RID order — heap order — until fn returns false, so a
// scan cut after any tuple resumes with the next. Each page's slots
// are copied under the shared latch into buf (see ScanBuf),
// then resolved through the version store with no latches held (an
// image the chain supplies is copied under its shard lock) — so a scan
// holds no locks, blocks no writer and never aborts, regardless of
// length, and scans resumed under one snapshot see one state. Tuples
// deleted after the snapshot are resurrected from their chains; tuples
// inserted after it are suppressed. tuple is valid until fn returns:
// fn copies what it keeps.
func (t *Table) ScanSnapshot(tx *Tx, after core.RID, buf *ScanBuf, fn func(rid core.RID, tuple []byte) bool) error {
	db := t.db
	if tx.status != txActive {
		return fmt.Errorf("%w: tx %d", ErrTxClosed, tx.id)
	}
	if !tx.readOnly || db.vs == nil {
		return fmt.Errorf("%w: tx %d", ErrNotSnapshot, tx.id)
	}
	if after == (core.RID{}) {
		db.vs.snapScans.Add(1) // a resumed scan counts once, at its start
	}
	return t.scanSlots(tx.w, after, buf, func(rid core.RID, tup []byte) bool {
		data, absent, override := db.vs.resolve(rid, tx.snapshot)
		switch {
		case override && absent:
			return true // not visible at the snapshot
		case override:
			tup = data
		case tup == nil:
			return true // deleted, with no retained history
		}
		return fn(rid, tup)
	})
}

// pinTuple is the head of every RID-addressed write: tx takes the tuple
// lock, and the tuple's page comes back exclusively latched together
// with the tuple's bytes on it. Caller holds stateMu shared.
func (t *Table) pinTuple(tx *Tx, rid core.RID) (pageRef, []byte, error) {
	if err := tx.writable(); err != nil {
		return pageRef{}, nil, err
	}
	if err := tx.lockRID(rid); err != nil {
		return pageRef{}, nil, err
	}
	pg, err := t.db.pinPage(tx.w, t.st, rid.Page, true)
	if err != nil {
		return pageRef{}, nil, err
	}
	tup, err := pg.ReadTuple(int(rid.Slot))
	if err != nil {
		pg.unpin()
		return pageRef{}, nil, fmt.Errorf("%w: %v: %v", ErrNoTuple, rid, err)
	}
	return pg, tup, nil
}

// Update replaces the tuple at rid, logging before/after images.
func (t *Table) Update(tx *Tx, rid core.RID, data []byte) error {
	db := t.db
	defer db.rlockState(tx.w).RUnlock()
	pg, old, err := t.pinTuple(tx, rid)
	if err != nil {
		return err
	}
	before := append([]byte(nil), old...)
	if db.vs != nil {
		// Under the exclusive latch, before the heap mutation: a snapshot
		// reader that sees the new heap state must find this before-image.
		db.vs.installPending(rid, tx.id, before, false)
	}
	if err := pg.Update(int(rid.Slot), data); err != nil {
		pg.unpin()
		return err
	}
	lsn := tx.logUpdate(rid.Page, wal.OpUpdate, int(rid.Slot), 0, before, data)
	pg.SetLSN(lsn)
	if err := pg.unpinDirty(lsn); err != nil {
		return err
	}
	return db.maybeReclaim(tx.w)
}

// UpdateField performs the OLTP pattern the paper analyses: a
// read-modify-write of a byte range within the tuple (e.g. one numeric
// attribute), leaving the rest untouched — which is what keeps update
// deltas small. The log record is as small as the change: an OpPatch
// carrying val and the bytes it replaces.
func (t *Table) UpdateField(tx *Tx, rid core.RID, off int, val []byte) error {
	return t.patchField(tx, rid, off, val, false, 0)
}

// AddField adds delta to the 8-byte little-endian word at off — the
// pure delta update the IPA scheme appends in place. The addition
// happens under the tuple lock, so concurrent terminals incrementing
// the same balance serialize instead of losing increments to stale
// client-side reads (the anomaly an absolute write computed from an
// unlocked read suffers).
func (t *Table) AddField(tx *Tx, rid core.RID, off int, delta uint64) error {
	return t.patchField(tx, rid, off, nil, true, delta)
}

// patchField is the one implementation of a field update: with add, the
// 8-byte word at off grows by delta; without, val replaces the bytes at
// off. One pass — the tuple lock, one pin, one exclusive latch — under
// which the base bytes are read, the record is logged and the page is
// patched, so the read-modify-write is atomic against concurrent
// writers and no copy of the tuple is made here: the version store
// copies the MVCC before-image from the page into a buffer of its own.
func (t *Table) patchField(tx *Tx, rid core.RID, off int, val []byte, add bool, delta uint64) error {
	db := t.db
	defer db.rlockState(tx.w).RUnlock()
	pg, tup, err := t.pinTuple(tx, rid)
	if err != nil {
		return err
	}
	n := len(val)
	if add {
		n = 8
	}
	if off < 0 || off > len(tup) || n > len(tup)-off {
		pg.unpin()
		return fmt.Errorf("engine: field of %d bytes at %d outside tuple of %d bytes", n, off, len(tup))
	}
	field := tup[off : off+n]
	if add {
		val = tx.word[:]
		binary.LittleEndian.PutUint64(val, binary.LittleEndian.Uint64(field)+delta)
	}
	if db.vs != nil {
		// Under the exclusive latch, before the heap mutation: a snapshot
		// reader that sees the new heap state must find this before-image.
		db.vs.installPending(rid, tx.id, tup, false)
	}
	// The record is appended first, straight from the page (Before) and
	// the caller's bytes (After): the log copies both, so neither needs a
	// buffer of its own.
	lsn := tx.logUpdate(rid.Page, wal.OpPatch, int(rid.Slot), off, field, val)
	copy(field, val)
	pg.SetLSN(lsn)
	if err := pg.unpinDirty(lsn); err != nil {
		return err
	}
	return db.maybeReclaim(tx.w)
}

// Delete removes the tuple at rid.
func (t *Table) Delete(tx *Tx, rid core.RID) error {
	db := t.db
	defer db.rlockState(tx.w).RUnlock()
	pg, old, err := t.pinTuple(tx, rid)
	if err != nil {
		return err
	}
	before := append([]byte(nil), old...)
	if db.vs != nil {
		db.vs.installPending(rid, tx.id, before, false)
	}
	if err := pg.Delete(int(rid.Slot)); err != nil {
		pg.unpin()
		return err
	}
	lsn := tx.logUpdate(rid.Page, wal.OpDelete, int(rid.Slot), 0, before, nil)
	pg.SetLSN(lsn)
	return pg.unpinDirty(lsn)
}

// Scan visits every live tuple in heap order until fn returns false. The
// callback runs with no latches held, so it may perform table reads;
// tuples inserted concurrently may or may not be seen. Each page is
// copied into one buffer the scan reuses, so tuple is valid until fn
// returns: fn copies what it keeps.
func (t *Table) Scan(w *sim.Worker, fn func(rid core.RID, tuple []byte) bool) error {
	return t.ScanAfter(w, core.RID{}, nil, fn)
}

// ScanAfter is Scan resumed strictly after the RID after: heap order is
// ascending RID order, so a scan cut after any tuple continues with the
// next one. Each page is consistent in itself; rows on pages the scan
// has not reached yet may change before it gets there. Pages are copied
// into buf (see ScanBuf).
func (t *Table) ScanAfter(w *sim.Worker, after core.RID, buf *ScanBuf, fn func(rid core.RID, tuple []byte) bool) error {
	return t.scanSlots(w, after, buf, func(rid core.RID, tup []byte) bool {
		return tup == nil || fn(rid, tup)
	})
}
