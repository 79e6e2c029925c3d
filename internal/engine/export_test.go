package engine

import (
	"bytes"
	"fmt"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/wal"
)

// RegionCell is one way a region serves update flushes. The tests that
// cross the engine with storage run all of RegionCells.
type RegionCell struct {
	Name    string
	Storage noftl.Storage
	Scheme  core.Scheme
}

// The three cells: in-place appends on [2×4], page-differential
// logging, and the out-of-place baseline, an IPA region on the disabled
// [0×0] scheme (labelled oop, as in `ipabench -exp schemes`).
var (
	CellIPA     = RegionCell{"ipa", noftl.StorageIPA, core.NewScheme(2, 4)}
	CellPDL     = RegionCell{"pdl", noftl.StoragePDL, core.Scheme{}}
	RegionCells = []RegionCell{{"oop", noftl.StorageIPA, core.Scheme{}}, CellIPA, CellPDL}
)

// Config returns the configuration of a region in the cell, with 20 %
// over-provisioning and Mode SLC where the scheme appends.
func (c RegionCell) Config(name string, blocksPerChip int) noftl.RegionConfig {
	rc := noftl.RegionConfig{Name: name, Storage: c.Storage, Scheme: c.Scheme, BlocksPerChip: blocksPerChip, OverProvision: 0.2}
	if !c.Scheme.Disabled() {
		rc.Mode = noftl.ModeSLC
	}
	return rc
}

// LogUpdate exposes tx.logUpdate so allocation guards can measure the
// update-logging path (logUpdate → wal.Append) in isolation.
func (tx *Tx) LogUpdate(pg core.PageID, op wal.PageOp, slot int, before, after []byte) core.LSN {
	return tx.logUpdate(pg, op, slot, 0, before, after)
}

// imageCheckStore is the flushed-image property as a buffer.Store: after
// every successful Flush it fetches the page back from the store below
// and requires the logical image storage now holds to equal the frame
// (the delta-record area aside, which belongs to storage). It holds for
// out-of-place writes, In-Place Appends, PDL appends and — the case that
// guards the latch rule — for flushes skipped because the frame's bytes
// supposedly never changed: bytes written without Frame.Latch fold into
// the captured image and are missing from storage here.
type imageCheckStore struct {
	buffer.Store
	db   *DB
	fail func(error)
}

func (s imageCheckStore) Flush(w *sim.Worker, fr *buffer.Frame) error {
	if err := s.Store.Flush(w, fr); err != nil {
		return err
	}
	stored := make([]byte, len(fr.Data))
	if _, err := s.Store.Fetch(w, fr.ID, stored); err != nil {
		s.fail(fmt.Errorf("page %d: fetch after flush: %w", fr.ID, err))
		return nil
	}
	body := s.db.pageDir.get(fr.ID).layout.DeltaAreaStart()
	if !bytes.Equal(stored[:body], fr.Data[:body]) {
		at := 0
		for stored[at] == fr.Data[at] {
			at++
		}
		s.fail(fmt.Errorf("page %d: after a flush storage differs from the frame at byte %d (stored %#x, frame %#x)",
			fr.ID, at, stored[at], fr.Data[at]))
	}
	return nil
}

// VerifyFlushedImages puts the flushed-image check under the database's
// buffer pool — the current one, which must not have been used yet, and
// every pool built later (crash, resize, snapshot install). fail is
// called, possibly from several goroutines, for every violation.
func (db *DB) VerifyFlushedImages(fail func(error)) error {
	db.lockState()
	defer db.unlockState()
	db.wrapStore = func(st buffer.Store) buffer.Store {
		return imageCheckStore{Store: st, db: db, fail: fail}
	}
	pool, err := db.newPool(db.opts.BufferFrames)
	if err != nil {
		return err
	}
	db.pool = pool
	return nil
}

// Root returns the current root page id. Advisory: by the time the
// caller uses it the root may have changed; operations never use it.
func (ix *OLCIndex) Root() core.PageID { return core.PageID(ix.root.Load()) }

// Pages returns the number of allocated heap pages.
func (t *Table) Pages() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pages)
}
