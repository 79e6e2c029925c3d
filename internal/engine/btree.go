package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ipa/internal/buffer"
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

// --- node accessors (operate on raw frame data) -----------------------

type node struct {
	fr   *buffer.Frame
	pg   page.Page
	leaf bool
	cap  int // max entries
}

// attachNode decodes a frame as a tree node. Both tree kinds share it
// (and the entire on-page node layout). The caller must hold the frame
// pinned and latched, since page.Attach reads header bytes.
func attachNode(st *PageStore, fr *buffer.Frame) (*node, error) {
	pg, err := page.Attach(fr.Data, st.layout)
	if err != nil {
		return nil, err
	}
	n := &node{fr: fr, pg: pg, leaf: pg.Flags()&page.FlagLeaf != 0}
	body := st.layout.DeltaAreaStart() - nodeBodyOff
	if n.leaf {
		n.cap = body / leafEntrySize
	} else {
		n.cap = (body - 8) / intEntrySize
	}
	return n, nil
}

func (ix *CoarseIndex) node(fr *buffer.Frame) (*node, error) {
	return attachNode(ix.st, fr)
}

func (n *node) count() int {
	return int(binary.LittleEndian.Uint16(n.fr.Data[nodeCountOff:]))
}

func (n *node) setCount(c int) {
	binary.LittleEndian.PutUint16(n.fr.Data[nodeCountOff:], uint16(c))
}

// leaf entries
func (n *node) leafKey(i int) uint64 {
	off := nodeBodyOff + i*leafEntrySize
	return binary.LittleEndian.Uint64(n.fr.Data[off:])
}

func (n *node) leafRID(i int) core.RID {
	off := nodeBodyOff + i*leafEntrySize
	return core.RID{
		Page: core.PageID(binary.LittleEndian.Uint64(n.fr.Data[off+8:])),
		Slot: binary.LittleEndian.Uint16(n.fr.Data[off+16:]),
	}
}

func (n *node) setLeaf(i int, key uint64, rid core.RID) {
	off := nodeBodyOff + i*leafEntrySize
	binary.LittleEndian.PutUint64(n.fr.Data[off:], key)
	binary.LittleEndian.PutUint64(n.fr.Data[off+8:], uint64(rid.Page))
	binary.LittleEndian.PutUint16(n.fr.Data[off+16:], rid.Slot)
}

// internal entries
func (n *node) child0() core.PageID {
	return core.PageID(binary.LittleEndian.Uint64(n.fr.Data[nodeBodyOff:]))
}

func (n *node) setChild0(id core.PageID) {
	binary.LittleEndian.PutUint64(n.fr.Data[nodeBodyOff:], uint64(id))
}

func (n *node) intKey(i int) uint64 {
	off := nodeBodyOff + 8 + i*intEntrySize
	return binary.LittleEndian.Uint64(n.fr.Data[off:])
}

func (n *node) intChild(i int) core.PageID {
	off := nodeBodyOff + 8 + i*intEntrySize
	return core.PageID(binary.LittleEndian.Uint64(n.fr.Data[off+8:]))
}

func (n *node) setInt(i int, key uint64, child core.PageID) {
	off := nodeBodyOff + 8 + i*intEntrySize
	binary.LittleEndian.PutUint64(n.fr.Data[off:], key)
	binary.LittleEndian.PutUint64(n.fr.Data[off+8:], uint64(child))
}

// leafSearch returns the position of key (found) or its insertion point.
func (n *node) leafSearch(key uint64) (pos int, found bool) {
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

// route returns the child to follow for key in an internal node.
func (n *node) route(key uint64) core.PageID {
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

// --- operations --------------------------------------------------------

// Lookup returns the RID stored under key.
func (ix *CoarseIndex) Lookup(w *sim.Worker, key uint64) (core.RID, bool, error) {
	ix.stats.lookups.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	ix.treeMu.RLock()
	defer ix.treeMu.RUnlock()
	cur := ix.root
	for {
		fr, err := db.pool.Get(w, cur)
		if err != nil {
			return core.RID{}, false, err
		}
		fr.RLatch()
		n, err := ix.node(fr)
		if err != nil {
			fr.RUnlatch()
			db.pool.Unpin(w, fr, false, 0)
			return core.RID{}, false, err
		}
		if n.leaf {
			pos, found := n.leafSearch(key)
			var rid core.RID
			if found {
				rid = n.leafRID(pos)
			}
			fr.RUnlatch()
			db.pool.Unpin(w, fr, false, 0)
			return rid, found, nil
		}
		next := n.route(key)
		fr.RUnlatch()
		db.pool.Unpin(w, fr, false, 0)
		cur = next
	}
}

// Insert adds key → rid. Duplicate keys are rejected.
func (ix *CoarseIndex) Insert(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.inserts.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	ix.treeMu.Lock()
	defer ix.treeMu.Unlock()
	sepKey, newChild, err := ix.insertRec(w, ix.root, key, rid)
	if err != nil {
		return err
	}
	if newChild == core.InvalidPageID {
		return nil
	}
	// Root split: grow the tree by one level.
	fr, pg, err := db.newPage(w, ix.st, 0, page.FlagIndex)
	if err != nil {
		return err
	}
	fr.Latch()
	n, err := ix.node(fr)
	if err != nil {
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return err
	}
	n.setChild0(ix.root)
	n.setInt(0, sepKey, newChild)
	n.setCount(1)
	ix.root = pg.ID()
	fr.Unlatch()
	return db.pool.Unpin(w, fr, true, db.log.Head())
}

// insertRec descends to the leaf; on split it returns the separator key
// and the new right sibling's id.
func (ix *CoarseIndex) insertRec(w *sim.Worker, nodeID core.PageID, key uint64, rid core.RID) (uint64, core.PageID, error) {
	db := ix.db
	fr, err := db.pool.Get(w, nodeID)
	if err != nil {
		return 0, core.InvalidPageID, err
	}
	fr.Latch()
	n, err := ix.node(fr)
	if err != nil {
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return 0, core.InvalidPageID, err
	}
	if n.leaf {
		pos, found := n.leafSearch(key)
		if found {
			fr.Unlatch()
			db.pool.Unpin(w, fr, false, 0)
			return 0, core.InvalidPageID, fmt.Errorf("%w: %d", ErrKeyExists, key)
		}
		if n.count() < n.cap {
			insertLeafAt(n, pos, key, rid)
			fr.Unlatch()
			return 0, core.InvalidPageID, db.pool.Unpin(w, fr, true, db.log.Head())
		}
		// Split the leaf. The latch is dropped around the allocation; the
		// exclusive tree latch keeps every other writer off the node.
		fr.Unlatch()
		rfr, rpg, err := db.newPage(w, ix.st, 0, page.FlagIndex|page.FlagLeaf)
		if err != nil {
			db.pool.Unpin(w, fr, false, 0)
			return 0, core.InvalidPageID, err
		}
		fr.Latch()
		rfr.Latch()
		rn, err := ix.node(rfr)
		if err != nil {
			rfr.Unlatch()
			fr.Unlatch()
			db.pool.Unpin(w, fr, false, 0)
			db.pool.Unpin(w, rfr, false, 0)
			return 0, core.InvalidPageID, err
		}
		mid := n.count() / 2
		moved := n.count() - mid
		for i := 0; i < moved; i++ {
			rn.setLeaf(i, n.leafKey(mid+i), n.leafRID(mid+i))
		}
		rn.setCount(moved)
		n.setCount(mid)
		rn.pg.SetNextPage(n.pg.NextPage())
		n.pg.SetNextPage(rpg.ID())
		sep := rn.leafKey(0)
		if key >= sep {
			p, _ := rn.leafSearch(key)
			insertLeafAt(rn, p, key, rid)
		} else {
			p, _ := n.leafSearch(key)
			insertLeafAt(n, p, key, rid)
		}
		rfr.Unlatch()
		fr.Unlatch()
		head := db.log.Head()
		if err := db.pool.Unpin(w, fr, true, head); err != nil {
			return 0, core.InvalidPageID, err
		}
		if err := db.pool.Unpin(w, rfr, true, head); err != nil {
			return 0, core.InvalidPageID, err
		}
		return sep, rpg.ID(), nil
	}

	child := n.route(key)
	// Release the parent during descent (no latch coupling needed:
	// mutations hold the tree latch exclusively).
	fr.Unlatch()
	db.pool.Unpin(w, fr, false, 0)
	sepKey, newChild, err := ix.insertRec(w, child, key, rid)
	if err != nil || newChild == core.InvalidPageID {
		return 0, core.InvalidPageID, err
	}
	// Re-pin the parent to install the new separator.
	fr, err = db.pool.Get(w, nodeID)
	if err != nil {
		return 0, core.InvalidPageID, err
	}
	fr.Latch()
	n, err = ix.node(fr)
	if err != nil {
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return 0, core.InvalidPageID, err
	}
	if n.count() < n.cap {
		insertIntAt(n, sepKey, newChild)
		fr.Unlatch()
		return 0, core.InvalidPageID, db.pool.Unpin(w, fr, true, db.log.Head())
	}
	// Split the internal node.
	fr.Unlatch()
	rfr, rpg, err := db.newPage(w, ix.st, 0, page.FlagIndex)
	if err != nil {
		db.pool.Unpin(w, fr, false, 0)
		return 0, core.InvalidPageID, err
	}
	fr.Latch()
	rfr.Latch()
	rn, err := ix.node(rfr)
	if err != nil {
		rfr.Unlatch()
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		db.pool.Unpin(w, rfr, false, 0)
		return 0, core.InvalidPageID, err
	}
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
	if sepKey >= upKey {
		insertIntAt(rn, sepKey, newChild)
	} else {
		insertIntAt(n, sepKey, newChild)
	}
	rfr.Unlatch()
	fr.Unlatch()
	head := db.log.Head()
	if err := db.pool.Unpin(w, fr, true, head); err != nil {
		return 0, core.InvalidPageID, err
	}
	if err := db.pool.Unpin(w, rfr, true, head); err != nil {
		return 0, core.InvalidPageID, err
	}
	return upKey, rpg.ID(), nil
}

func insertLeafAt(n *node, pos int, key uint64, rid core.RID) {
	for i := n.count(); i > pos; i-- {
		n.setLeaf(i, n.leafKey(i-1), n.leafRID(i-1))
	}
	n.setLeaf(pos, key, rid)
	n.setCount(n.count() + 1)
}

func insertIntAt(n *node, key uint64, child core.PageID) {
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

// Update changes the RID stored under an existing key (e.g. after a
// tuple relocation).
func (ix *CoarseIndex) Update(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.updates.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	ix.treeMu.Lock()
	defer ix.treeMu.Unlock()
	cur := ix.root
	for {
		fr, err := db.pool.Get(w, cur)
		if err != nil {
			return err
		}
		fr.Latch()
		n, err := ix.node(fr)
		if err != nil {
			fr.Unlatch()
			db.pool.Unpin(w, fr, false, 0)
			return err
		}
		if n.leaf {
			pos, found := n.leafSearch(key)
			if !found {
				fr.Unlatch()
				db.pool.Unpin(w, fr, false, 0)
				return fmt.Errorf("engine: index %q has no key %d", ix.name, key)
			}
			n.setLeaf(pos, key, rid)
			fr.Unlatch()
			return db.pool.Unpin(w, fr, true, db.log.Head())
		}
		next := n.route(key)
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		cur = next
	}
}

// Delete removes a key (lazy deletion: leaves are never merged, which is
// adequate for the OLTP workloads where deletes are rare).
func (ix *CoarseIndex) Delete(w *sim.Worker, key uint64) (bool, error) {
	ix.stats.deletes.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	ix.treeMu.Lock()
	defer ix.treeMu.Unlock()
	cur := ix.root
	for {
		fr, err := db.pool.Get(w, cur)
		if err != nil {
			return false, err
		}
		fr.Latch()
		n, err := ix.node(fr)
		if err != nil {
			fr.Unlatch()
			db.pool.Unpin(w, fr, false, 0)
			return false, err
		}
		if n.leaf {
			pos, found := n.leafSearch(key)
			if !found {
				fr.Unlatch()
				db.pool.Unpin(w, fr, false, 0)
				return false, nil
			}
			for i := pos; i < n.count()-1; i++ {
				n.setLeaf(i, n.leafKey(i+1), n.leafRID(i+1))
			}
			n.setCount(n.count() - 1)
			fr.Unlatch()
			return true, db.pool.Unpin(w, fr, true, db.log.Head())
		}
		next := n.route(key)
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		cur = next
	}
}

// Range visits keys in [lo, hi] in order until fn returns false. The
// tree latch is released while fn runs, so the callback may perform
// table reads; keys inserted concurrently may or may not be seen.
func (ix *CoarseIndex) Range(w *sim.Worker, lo, hi uint64, fn func(key uint64, rid core.RID) bool) error {
	ix.stats.scans.Add(1)
	db := ix.db
	// Descend to the leaf containing lo.
	db.stateMu.RLock()
	ix.treeMu.RLock()
	cur := ix.root
	for {
		fr, err := db.pool.Get(w, cur)
		if err != nil {
			ix.treeMu.RUnlock()
			db.stateMu.RUnlock()
			return err
		}
		fr.RLatch()
		n, err := ix.node(fr)
		if err != nil {
			fr.RUnlatch()
			db.pool.Unpin(w, fr, false, 0)
			ix.treeMu.RUnlock()
			db.stateMu.RUnlock()
			return err
		}
		if n.leaf {
			fr.RUnlatch()
			db.pool.Unpin(w, fr, false, 0)
			break
		}
		next := n.route(lo)
		fr.RUnlatch()
		db.pool.Unpin(w, fr, false, 0)
		cur = next
	}
	ix.treeMu.RUnlock()
	db.stateMu.RUnlock()
	// Walk the leaf chain, buffering each leaf's entries and invoking the
	// callback outside the latch.
	for cur != core.InvalidPageID {
		db.stateMu.RLock()
		ix.treeMu.RLock()
		fr, err := db.pool.Get(w, cur)
		if err != nil {
			ix.treeMu.RUnlock()
			db.stateMu.RUnlock()
			return err
		}
		fr.RLatch()
		n, err := ix.node(fr)
		if err != nil {
			fr.RUnlatch()
			db.pool.Unpin(w, fr, false, 0)
			ix.treeMu.RUnlock()
			db.stateMu.RUnlock()
			return err
		}
		type kv struct {
			k uint64
			r core.RID
		}
		var items []kv
		done := false
		start, _ := n.leafSearch(lo)
		for i := start; i < n.count(); i++ {
			k := n.leafKey(i)
			if k > hi {
				done = true
				break
			}
			items = append(items, kv{k, n.leafRID(i)})
		}
		next := n.pg.NextPage()
		fr.RUnlatch()
		db.pool.Unpin(w, fr, false, 0)
		ix.treeMu.RUnlock()
		db.stateMu.RUnlock()
		for _, it := range items {
			if !fn(it.k, it.r) {
				return nil
			}
		}
		if done {
			return nil
		}
		cur = next
	}
	return nil
}
