package engine

import (
	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
)

// latchMode is how a pageRef holds its frame's content latch.
type latchMode uint8

const (
	latchNone   latchMode = iota // pinned only: the frame cannot be rebound, its bytes are off limits
	latchShared                  // the page may be read
	latchExcl                    // the page may be changed
)

// pageRef is the engine's one way to a buffered page: a pin on its
// frame, the frame's content latch in the mode the holder asked for, and
// the slotted view (or B+tree node, see btree.go) over the frame's
// bytes. Everything is given back in one call, unpin or unpinDirty, and
// a constructor that fails holds nothing. The embedded page.Page may be
// read while the latch is held in either mode and changed only while it
// is held exclusively — the latch rule of DESIGN.md "Page translation
// and the flushed image": the first exclusive latch after a load or a
// flush captures the image the next flush diffs against, so a byte
// changed outside it never reaches flash. unpinDirty refuses a handle
// that is not exclusive, which makes the rule this file's to keep.
//
// The one read without a handle reads no page byte: a warm OLC step
// routes through an internal node's decoded copy (buffer.Route), which a
// shared handle built and published (olctree.go).
//
// Order: pin, then latch; the latch goes before the pin does, because
// the Unpin that crosses the dirty threshold runs a cleaner pass, which
// latches other frames. A handle is a value: copies share the frame but
// not the mode, so only one copy may release.
type pageRef struct {
	page.Page
	fr   *buffer.Frame
	db   *DB
	w    *sim.Worker
	mode latchMode
}

// pin pins page id, fetching it on a miss, and returns it unlatched and
// not yet attached — the form the OLC tree's validation protocol needs
// (latch, validate, then attach; the parent pinned across the child's
// fetch). The caller holds stateMu, shared at least.
func (db *DB) pin(w *sim.Worker, id core.PageID) (pageRef, error) {
	fr, err := db.pool.Get(w, id)
	return pageRef{fr: fr, db: db, w: w}, err
}

// pinPage returns page id of store st pinned, latched (exclusively if
// excl) and attached.
func (db *DB) pinPage(w *sim.Worker, st *PageStore, id core.PageID, excl bool) (r pageRef, err error) {
	if r, err = db.pin(w, id); err != nil {
		return pageRef{}, err
	}
	r.latch(excl)
	if err = r.attach(st); err != nil {
		return pageRef{}, err
	}
	return r, nil
}

// pinNew is pin for a page that has no copy in storage: it binds a
// frame (zeroed, unless the page is resident already) without a fetch.
func (db *DB) pinNew(w *sim.Worker, id core.PageID) (pageRef, error) {
	fr, err := db.pool.GetNew(w, id)
	return pageRef{fr: fr, db: db, w: w}, err
}

// formatNew returns page id, which has no copy in storage, formatted
// empty and exclusively latched.
func (db *DB) formatNew(w *sim.Worker, st *PageStore, id core.PageID) (pageRef, error) {
	r, err := db.pinNew(w, id)
	if err != nil {
		return pageRef{}, err
	}
	r.latch(true)
	pg, err := page.Format(r.fr.Data, st.layout, id)
	if err != nil {
		r.unpin()
		return pageRef{}, err
	}
	r.Page = *pg
	return r, nil
}

// pinRedo is pinPage for the two replay paths, restart redo and the
// follower's applier: a page that was allocated but never reached this
// node's flash is recreated empty, for replay to rebuild from the log.
func (db *DB) pinRedo(w *sim.Worker, st *PageStore, id core.PageID, excl bool) (pageRef, error) {
	r, err := db.pinPage(w, st, id, excl)
	if err == nil || st.region.Contains(id) {
		return r, err
	}
	if r, err = db.formatNew(w, st, id); err == nil && !excl {
		r.unlatch()
		r.latch(false)
	}
	return r, err
}

// latch takes the content latch of a handle that holds none.
func (r *pageRef) latch(excl bool) {
	if excl {
		r.fr.Latch()
		r.mode = latchExcl
	} else {
		r.fr.RLatch()
		r.mode = latchShared
	}
}

// tryLatch is latch without blocking; it reports whether it got the
// latch.
func (r *pageRef) tryLatch(excl bool) bool {
	if excl && r.fr.TryLatch() {
		r.mode = latchExcl
	} else if !excl && r.fr.TryRLatch() {
		r.mode = latchShared
	}
	return r.mode != latchNone
}

// unlatch gives the latch back and keeps the pin.
func (r *pageRef) unlatch() {
	switch r.mode {
	case latchExcl:
		r.fr.Unlatch()
	case latchShared:
		r.fr.RUnlatch()
	}
	r.mode = latchNone
}

// attach validates the latched frame as a page of st and sets the
// embedded view; on error it releases the handle.
func (r *pageRef) attach(st *PageStore) (err error) {
	if r.Page, err = page.Attach(r.fr.Data, st.layout); err != nil {
		r.unpin()
	}
	return err
}

// unpin gives back the latch, if any, and the pin of an unchanged page.
// The error is the cleaner pass's, if the Unpin ran one.
func (r *pageRef) unpin() error {
	r.unlatch()
	return r.db.pool.Unpin(r.w, r.fr, false, 0)
}

// unpinDirty gives back a page changed under this handle's exclusive
// latch; lsn becomes the frame's recLSN if it was clean.
func (r *pageRef) unpinDirty(lsn core.LSN) error {
	if r.mode != latchExcl {
		panic("engine: page released dirty without its exclusive latch")
	}
	r.fr.Unlatch()
	r.mode = latchNone
	return r.db.pool.Unpin(r.w, r.fr, true, lsn)
}
