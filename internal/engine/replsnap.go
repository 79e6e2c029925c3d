package engine

import (
	"fmt"

	"ipa/internal/core"
	"ipa/internal/sim"
)

// Replica snapshot transfer: when a joining (or diverged) follower's
// log cursor falls behind the primary's truncated tail, the primary
// ships a full engine image instead. The image primes the follower at
// PrimeLSN = min(active transaction firstLSN) - 1 (or the log head when
// nothing is in flight), which guarantees two things at once: every
// in-flight transaction's records replay from its RecBegin (so the
// follower rebuilds complete undo chains and version entries), and the
// primary's own checkpoint cut — never past the minimum active firstLSN
// — has retained every record the follower will ask for next. Replay
// over the image is idempotent through the PageLSN guards.

// TableMeta describes one heap table in a snapshot.
type TableMeta struct {
	Name   string        `json:"name"`
	Region string        `json:"region"`
	ID     uint64        `json:"id"`
	Pages  []core.PageID `json:"pages"`
	Last   core.PageID   `json:"last"`
}

// PageImage is one page's full contents.
type PageImage struct {
	ID     core.PageID `json:"id"`
	Region string      `json:"region"`
	Data   []byte      `json:"data"`
}

// ReplicaSnapshot is a transferable engine image: catalog, allocator
// high-water marks, and every heap page.
type ReplicaSnapshot struct {
	PrimeLSN core.LSN    `json:"prime_lsn"`
	NextPage uint64      `json:"next_page"`
	NextTx   uint64      `json:"next_tx"`
	Tables   []TableMeta `json:"tables"`
	Pages    []PageImage `json:"pages"`
}

// snapIDSpread bounds a snapshot's allocator mark by its page count (see
// InstallSnapshot): each page table then holds at most 16 entries, 128 B,
// per page image installed.
const snapIDSpread = 16

// CaptureSnapshot builds a consistent engine image. Stop-the-world (the
// state latch is held exclusively), so the heap, catalog and
// transaction table are mutually consistent; uncommitted changes in the
// image are repaired on the follower by the CLRs that follow in the
// stream, exactly as restart recovery repairs them after a crash.
func (db *DB) CaptureSnapshot(w *sim.Worker) (*ReplicaSnapshot, error) {
	db.lockState()
	defer db.unlockState()
	if db.closed.Load() {
		return nil, ErrClosed
	}

	var minFirst core.LSN
	db.eachActive(func(tx *Tx) {
		if minFirst == 0 || tx.firstLSN < minFirst {
			minFirst = tx.firstLSN
		}
	})
	prime := db.log.Head()
	if minFirst != 0 && minFirst-1 < prime {
		prime = minFirst - 1
	}

	snap := &ReplicaSnapshot{
		PrimeLSN: prime,
		NextPage: db.nextPage.Load(),
		NextTx:   db.nextTx.Load(),
	}
	db.catMu.Lock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.catMu.Unlock()
	for _, t := range tables {
		sim.Lock(&t.mu)
		tm := TableMeta{
			Name:   t.name,
			Region: t.st.Region().Name(),
			ID:     t.id,
			Pages:  append([]core.PageID(nil), t.pages...),
			Last:   t.last,
		}
		t.mu.Unlock()
		snap.Tables = append(snap.Tables, tm)
		for _, pid := range tm.Pages {
			pg, err := db.pinPage(w, t.st, pid, false)
			if err != nil {
				return nil, fmt.Errorf("engine: snapshot page %d: %w", pid, err)
			}
			img := append([]byte(nil), pg.Buf()...)
			if err := pg.unpin(); err != nil {
				return nil, err
			}
			snap.Pages = append(snap.Pages, PageImage{ID: pid, Region: tm.Region, Data: img})
		}
	}
	return snap, nil
}

// InstallSnapshot replaces the follower's entire volatile and heap
// state with the image and splices the local log at PrimeLSN, so the
// next shipped record (PrimeLSN+1) appends with exact parity. The old
// pool, page directory, version chains and lock table are discarded —
// this is also the divergence repair path, so nothing of the previous
// state is trusted.
func (db *DB) InstallSnapshot(w *sim.Worker, snap *ReplicaSnapshot) error {
	db.lockState()
	defer db.unlockState()
	if db.closed.Load() {
		return ErrClosed
	}
	// The image came over the wire: refuse ids the page tables cannot
	// hold, or can hold only sparsely (wireIDWindow), before anything of
	// the current state is discarded. The allocator mark of an honest
	// image is the number of its pages plus the ids that went to index
	// pages and failed allocations, nowhere near snapIDSpread times it;
	// and it issued every id the image carries.
	if err := checkWireID(core.PageID(snap.NextPage), snapIDSpread*uint64(len(snap.Pages))); err != nil {
		return fmt.Errorf("engine: snapshot next page: %w", err)
	}
	for _, pi := range snap.Pages {
		if uint64(pi.ID) > snap.NextPage {
			return fmt.Errorf("engine: snapshot page %d is beyond its next page %d: %w",
				pi.ID, snap.NextPage, core.ErrPageIDRange)
		}
	}

	if err := db.dropVolatile(); err != nil {
		return err
	}
	db.pageDir.clear()
	db.catMu.Lock()
	db.tables = make(map[string]*Table)
	db.catMu.Unlock()

	for _, tm := range snap.Tables {
		t, err := db.restoreReplicaTable(tm.Name, tm.Region, tm.ID)
		if err != nil {
			return err
		}
		sim.Lock(&t.mu)
		t.pages = append([]core.PageID(nil), tm.Pages...)
		t.last = tm.Last
		t.mu.Unlock()
	}
	for _, pi := range snap.Pages {
		st, err := db.attachRegion(pi.Region)
		if err != nil {
			return err
		}
		if err := db.pageDir.put(pi.ID, st); err != nil {
			return err
		}
		pg, err := db.pinNew(w, st, pi.ID)
		if err != nil {
			return err
		}
		pg.latch(true)
		if len(pi.Data) != len(pg.fr.Data) {
			pg.unpin()
			return fmt.Errorf("engine: snapshot page %d is %d bytes, frame holds %d",
				pi.ID, len(pi.Data), len(pg.fr.Data))
		}
		copy(pg.fr.Data, pi.Data)
		if err := pg.attach(st); err != nil {
			return err
		}
		if err := pg.unpinDirty(pg.LSN()); err != nil {
			return err
		}
	}
	db.nextPage.Store(snap.NextPage)
	db.nextTx.Store(snap.NextTx)
	db.log.Reset(snap.PrimeLSN)
	// Persist the image so a follower-local restart recovers from its
	// own flash plus the retained stream suffix.
	return db.pool.FlushAll(w)
}
