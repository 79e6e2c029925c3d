package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
)

// CoarseIndex is a page-based B+tree mapping uint64 keys to RIDs. Index
// pages live in a region and move through the same buffer pool and flush
// path as heap pages, so index updates also benefit from In-Place
// Appends ("frequently updated tables *or indices*", paper Sec. 1).
//
// The index is a non-logged structure: it is rebuilt from its table
// after restart recovery (a common recovery strategy for secondary
// structures), which keeps the WAL focused on tuple data.
//
// Concurrency: each index carries its own reader/writer tree latch —
// lookups and range scans run shared (in parallel with each other and
// with all heap operations), mutations run exclusive. No latch crabbing:
// the per-index latch is coarse but never blocks operations on other
// indexes, tables, or regions. The tree latch orders tree operations
// against each other but not against the flush paths: the cleaner claims
// a dirty frame while it is unpinned and reads its image a moment later,
// by which time a tree operation may have pinned the same frame. So node
// contents are read under the frame's shared latch and changed under its
// exclusive latch, like heap pages. Order: tree latch, then frame latch;
// a frame latch is never held across pool.Get or newPage (which may
// evict, and so flush, some other frame). The coarse tree is the
// paper-fidelity default; OLCIndex is the scalable alternative (see
// index.go and DESIGN.md "Index latching").
type CoarseIndex struct {
	db   *DB
	st   *PageStore
	name string

	treeMu sync.RWMutex
	root   core.PageID

	stats indexCounters
}

// Node layout, written directly into the page body:
//
//	leaf (FlagIndex|FlagLeaf):     count:uint16, entries[count]{key:u64, page:u64, slot:u16}
//	internal (FlagIndex):          count:uint16, child0:u64, entries[count]{key:u64, child:u64}
//
// An internal node routes key < entries[0].key to child0, and key ≥
// entries[i].key (last such i) to entries[i].child. Leaves are chained
// via NextPage for range scans.
const (
	leafEntrySize = 18
	intEntrySize  = 16
	nodeCountOff  = page.HeaderSize
	nodeBodyOff   = page.HeaderSize + 2
)

// ErrKeyExists is returned on duplicate insert.
var ErrKeyExists = errors.New("engine: key already in index")

// Name returns the index name.
func (ix *CoarseIndex) Name() string { return ix.name }

// Root returns the current root page id. Advisory: for tests and tools;
// operations resolve the root themselves under the tree latch (the
// Index interface deliberately omits Root, see index.go).
func (ix *CoarseIndex) Root() core.PageID {
	ix.treeMu.RLock()
	defer ix.treeMu.RUnlock()
	return ix.root
}

// Stats snapshots the operation counters. Restarts and LatchWaits are
// always zero for the coarse tree.
func (ix *CoarseIndex) Stats() IndexStats { return ix.stats.snapshot(IndexCoarse) }

// --- node accessors ----------------------------------------------------
//
// A node is a pageRef whose page carries FlagIndex: both tree kinds read
// and change nodes through these methods, under the handle's latch.

func (n *pageRef) leaf() bool { return n.Flags()&page.FlagLeaf != 0 }

// full reports whether the node holds as many entries as its body fits.
func (n *pageRef) full() bool {
	body := n.Layout().DeltaAreaStart() - nodeBodyOff
	if n.leaf() {
		return n.count() >= body/leafEntrySize
	}
	return n.count() >= (body-8)/intEntrySize
}

func (n *pageRef) count() int {
	return int(binary.LittleEndian.Uint16(n.fr.Data[nodeCountOff:]))
}

func (n *pageRef) setCount(c int) {
	binary.LittleEndian.PutUint16(n.fr.Data[nodeCountOff:], uint16(c))
}

// leaf entries
func (n *pageRef) leafKey(i int) uint64 {
	off := nodeBodyOff + i*leafEntrySize
	return binary.LittleEndian.Uint64(n.fr.Data[off:])
}

func (n *pageRef) leafRID(i int) core.RID {
	off := nodeBodyOff + i*leafEntrySize
	return core.RID{
		Page: core.PageID(binary.LittleEndian.Uint64(n.fr.Data[off+8:])),
		Slot: binary.LittleEndian.Uint16(n.fr.Data[off+16:]),
	}
}

func (n *pageRef) setLeaf(i int, key uint64, rid core.RID) {
	off := nodeBodyOff + i*leafEntrySize
	binary.LittleEndian.PutUint64(n.fr.Data[off:], key)
	binary.LittleEndian.PutUint64(n.fr.Data[off+8:], uint64(rid.Page))
	binary.LittleEndian.PutUint16(n.fr.Data[off+16:], rid.Slot)
}

// internal entries
func (n *pageRef) child0() core.PageID {
	return core.PageID(binary.LittleEndian.Uint64(n.fr.Data[nodeBodyOff:]))
}

func (n *pageRef) setChild0(id core.PageID) {
	binary.LittleEndian.PutUint64(n.fr.Data[nodeBodyOff:], uint64(id))
}

func (n *pageRef) intKey(i int) uint64 {
	off := nodeBodyOff + 8 + i*intEntrySize
	return binary.LittleEndian.Uint64(n.fr.Data[off:])
}

func (n *pageRef) intChild(i int) core.PageID {
	off := nodeBodyOff + 8 + i*intEntrySize
	return core.PageID(binary.LittleEndian.Uint64(n.fr.Data[off+8:]))
}

func (n *pageRef) setInt(i int, key uint64, child core.PageID) {
	off := nodeBodyOff + 8 + i*intEntrySize
	binary.LittleEndian.PutUint64(n.fr.Data[off:], key)
	binary.LittleEndian.PutUint64(n.fr.Data[off+8:], uint64(child))
}

// leafSearch returns the position of key (found) or its insertion point.
func (n *pageRef) leafSearch(key uint64) (pos int, found bool) {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		k := n.leafKey(mid)
		if k == key {
			return mid, true
		}
		if k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

// lookup returns the RID a leaf stores under key.
func (n *pageRef) lookup(key uint64) (core.RID, bool) {
	if pos, found := n.leafSearch(key); found {
		return n.leafRID(pos), true
	}
	return core.RID{}, false
}

// route returns the child to follow for key in an internal node.
func (n *pageRef) route(key uint64) core.PageID {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.intKey(mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return n.child0()
	}
	return n.intChild(lo - 1)
}

// --- node changes, shared by both tree kinds ---------------------------
//
// Each runs under the exclusive latches of the nodes it names; the
// caller releases them (and, in the OLC tree, bumps their versions
// first).

func (n *pageRef) insertLeafAt(pos int, key uint64, rid core.RID) {
	for i := n.count(); i > pos; i-- {
		n.setLeaf(i, n.leafKey(i-1), n.leafRID(i-1))
	}
	n.setLeaf(pos, key, rid)
	n.setCount(n.count() + 1)
}

// removeLeafAt drops entry pos (lazy deletion: leaves are never merged,
// which is adequate for the OLTP workloads where deletes are rare).
func (n *pageRef) removeLeafAt(pos int) {
	for i := pos; i < n.count()-1; i++ {
		n.setLeaf(i, n.leafKey(i+1), n.leafRID(i+1))
	}
	n.setCount(n.count() - 1)
}

func (n *pageRef) insertIntAt(key uint64, child core.PageID) {
	pos := 0
	for pos < n.count() && n.intKey(pos) < key {
		pos++
	}
	for i := n.count(); i > pos; i-- {
		n.setInt(i, n.intKey(i-1), n.intChild(i-1))
	}
	n.setInt(pos, key, child)
	n.setCount(n.count() + 1)
}

// splitLeaf moves the entries from mid on of the full leaf n to its new,
// empty right sibling rn, chains rn after n and inserts key → rid on the
// side it belongs to. It returns the separator: rn's first key. With mid
// at n's count nothing moves and rn starts out with the new key alone,
// which is right only for a key above every entry of n.
func splitLeaf(n, rn *pageRef, mid int, key uint64, rid core.RID) uint64 {
	moved := n.count() - mid
	for i := 0; i < moved; i++ {
		rn.setLeaf(i, n.leafKey(mid+i), n.leafRID(mid+i))
	}
	rn.setCount(moved)
	n.setCount(mid)
	rn.SetNextPage(n.NextPage())
	n.SetNextPage(rn.fr.ID)
	side := n
	if moved == 0 || key >= rn.leafKey(0) {
		side = rn
	}
	pos, _ := side.leafSearch(key)
	side.insertLeafAt(pos, key, rid)
	return rn.leafKey(0)
}

// splitInternal moves the entries above the middle one of the full
// internal node n to its new, empty right sibling rn, inserts key →
// child on the side it belongs to and returns the middle key, which
// moves up.
func splitInternal(n, rn *pageRef, key uint64, child core.PageID) uint64 {
	mid := n.count() / 2
	upKey := n.intKey(mid)
	rn.setChild0(n.intChild(mid))
	cnt := 0
	for i := mid + 1; i < n.count(); i++ {
		rn.setInt(cnt, n.intKey(i), n.intChild(i))
		cnt++
	}
	rn.setCount(cnt)
	n.setCount(mid)
	if key >= upKey {
		rn.insertIntAt(key, child)
	} else {
		n.insertIntAt(key, child)
	}
	return upKey
}

// setRoot makes the new, empty internal node n the root over left and
// right, split at sep: the tree grows by one level.
func (n *pageRef) setRoot(left core.PageID, sep uint64, right core.PageID) {
	n.setChild0(left)
	n.setInt(0, sep, right)
	n.setCount(1)
}

// indexEntry is one key of a range scan, buffered while its leaf is
// latched and handed to the callback once it is not.
type indexEntry struct {
	key uint64
	rid core.RID
}

// leafRange appends the leaf's entries in [lo, hi] to items. done
// reports an entry above hi: the scan ends in this leaf.
func (n *pageRef) leafRange(lo, hi uint64, items []indexEntry) (_ []indexEntry, done bool) {
	start, _ := n.leafSearch(lo)
	for i := start; i < n.count(); i++ {
		k := n.leafKey(i)
		if k > hi {
			return items, true
		}
		items = append(items, indexEntry{k, n.leafRID(i)})
	}
	return items, false
}

// --- operations --------------------------------------------------------

// leafFor descends from the root to the leaf owning key and returns it
// pinned and latched; every node on the way is latched the same way,
// exclusively if excl, and released before its child is fetched. The
// caller holds stateMu shared and the tree latch.
func (ix *CoarseIndex) leafFor(w *sim.Worker, key uint64, excl bool) (pageRef, error) {
	cur := ix.root
	for {
		n, err := ix.db.pinPage(w, ix.st, cur, excl)
		if err != nil || n.leaf() {
			return n, err
		}
		cur = n.route(key)
		n.unpin()
	}
}

// Lookup returns the RID stored under key.
func (ix *CoarseIndex) Lookup(w *sim.Worker, key uint64) (core.RID, bool, error) {
	ix.stats.of(w).lookups.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	ix.treeMu.RLock()
	defer ix.treeMu.RUnlock()
	n, err := ix.leafFor(w, key, false)
	if err != nil {
		return core.RID{}, false, err
	}
	rid, found := n.lookup(key)
	n.unpin()
	return rid, found, nil
}

// Insert adds key → rid. Duplicate keys are rejected.
func (ix *CoarseIndex) Insert(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.of(w).inserts.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	ix.treeMu.Lock()
	defer ix.treeMu.Unlock()
	sepKey, newChild, err := ix.insertRec(w, ix.root, key, rid)
	if err != nil || newChild == core.InvalidPageID {
		return err
	}
	// Root split: grow the tree by one level.
	n, err := db.newPage(w, ix.st, 0, page.FlagIndex)
	if err != nil {
		return err
	}
	n.setRoot(ix.root, sepKey, newChild)
	ix.root = n.fr.ID
	return n.unpinDirty(db.log.Head())
}

// insertRec descends to the leaf; on split it returns the separator key
// and the new right sibling's id.
func (ix *CoarseIndex) insertRec(w *sim.Worker, nodeID core.PageID, key uint64, rid core.RID) (uint64, core.PageID, error) {
	db := ix.db
	n, err := db.pinPage(w, ix.st, nodeID, true)
	if err != nil {
		return 0, core.InvalidPageID, err
	}
	if n.leaf() {
		pos, found := n.leafSearch(key)
		if found {
			n.unpin()
			return 0, core.InvalidPageID, fmt.Errorf("%w: %d", ErrKeyExists, key)
		}
		if !n.full() {
			n.insertLeafAt(pos, key, rid)
			return 0, core.InvalidPageID, n.unpinDirty(db.log.Head())
		}
		rn, err := ix.sibling(w, &n)
		if err != nil {
			return 0, core.InvalidPageID, err
		}
		return ix.splitDone(&n, &rn, splitLeaf(&n, &rn, n.count()/2, key, rid))
	}

	child := n.route(key)
	// Release the parent during descent (no latch coupling needed:
	// mutations hold the tree latch exclusively).
	n.unpin()
	sepKey, newChild, err := ix.insertRec(w, child, key, rid)
	if err != nil || newChild == core.InvalidPageID {
		return 0, core.InvalidPageID, err
	}
	// Re-pin the parent to install the new separator.
	n, err = db.pinPage(w, ix.st, nodeID, true)
	if err != nil {
		return 0, core.InvalidPageID, err
	}
	if !n.full() {
		n.insertIntAt(sepKey, newChild)
		return 0, core.InvalidPageID, n.unpinDirty(db.log.Head())
	}
	rn, err := ix.sibling(w, &n)
	if err != nil {
		return 0, core.InvalidPageID, err
	}
	return ix.splitDone(&n, &rn, splitInternal(&n, &rn, sepKey, newChild))
}

// sibling allocates the right sibling a split of the full node n fills,
// and returns both exclusively latched. n's latch is dropped around the
// allocation (a frame latch is not held across a fetch or an
// allocation); the exclusive tree latch keeps every other writer off the
// node meanwhile. On error n is released.
func (ix *CoarseIndex) sibling(w *sim.Worker, n *pageRef) (pageRef, error) {
	flags := n.Flags()
	n.unlatch()
	rn, err := ix.db.newPage(w, ix.st, 0, flags)
	if err != nil {
		n.unpin()
		return pageRef{}, err
	}
	n.latch(true)
	return rn, nil
}

// splitDone releases the two halves of a split, both changed, and
// reports the separator and the new right sibling to the level above.
func (ix *CoarseIndex) splitDone(n, rn *pageRef, sep uint64) (uint64, core.PageID, error) {
	right, head := rn.fr.ID, ix.db.log.Head()
	err := n.unpinDirty(head)
	if e := rn.unpinDirty(head); err == nil {
		err = e
	}
	return sep, right, err
}

// Update changes the RID stored under an existing key (e.g. after a
// tuple relocation).
func (ix *CoarseIndex) Update(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.of(w).updates.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	ix.treeMu.Lock()
	defer ix.treeMu.Unlock()
	n, err := ix.leafFor(w, key, true)
	if err != nil {
		return err
	}
	pos, found := n.leafSearch(key)
	if !found {
		n.unpin()
		return fmt.Errorf("engine: index %q has no key %d", ix.name, key)
	}
	n.setLeaf(pos, key, rid)
	return n.unpinDirty(db.log.Head())
}

// Delete removes a key, reporting whether it was there.
func (ix *CoarseIndex) Delete(w *sim.Worker, key uint64) (bool, error) {
	ix.stats.of(w).deletes.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	ix.treeMu.Lock()
	defer ix.treeMu.Unlock()
	n, err := ix.leafFor(w, key, true)
	if err != nil {
		return false, err
	}
	pos, found := n.leafSearch(key)
	if !found {
		n.unpin()
		return false, nil
	}
	n.removeLeafAt(pos)
	return true, n.unpinDirty(db.log.Head())
}

// Range visits keys in [lo, hi] in order until fn returns false. The
// tree latch is released while fn runs, so the callback may perform
// table reads; keys inserted concurrently may or may not be seen.
func (ix *CoarseIndex) Range(w *sim.Worker, lo, hi uint64, fn func(key uint64, rid core.RID) bool) error {
	ix.stats.of(w).scans.Add(1)
	db := ix.db
	// Find the leaf containing lo. It is fetched again below, with every
	// other leaf of the chain, under latches taken afresh.
	state := db.rlockState(w)
	ix.treeMu.RLock()
	n, err := ix.leafFor(w, lo, false)
	cur := core.InvalidPageID
	if err == nil {
		cur = n.fr.ID
		n.unpin()
	}
	ix.treeMu.RUnlock()
	state.RUnlock()
	if err != nil {
		return err
	}
	// Walk the leaf chain, buffering each leaf's entries and invoking the
	// callback outside the latch.
	var items []indexEntry
	for cur != core.InvalidPageID {
		state.RLock()
		ix.treeMu.RLock()
		n, err := db.pinPage(w, ix.st, cur, false)
		done := false
		if err == nil {
			items, done = n.leafRange(lo, hi, items[:0])
			cur = n.NextPage()
			n.unpin()
		}
		ix.treeMu.RUnlock()
		state.RUnlock()
		if err != nil {
			return err
		}
		for _, it := range items {
			if !fn(it.key, it.rid) {
				return nil
			}
		}
		if done {
			return nil
		}
	}
	return nil
}
