package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
)

// OLCIndex is the engine's B+tree (node layout in btree.go), latched by
// optimistic lock coupling. It is a non-logged structure: it is rebuilt
// from its table after restart recovery (a common recovery strategy for
// secondary structures), which keeps the WAL focused on tuple data.
//
// There is no tree-wide latch. Every buffer frame carries a version word
// (buffer.Frame.Version) that index writers bump before releasing their
// exclusive latch; the binding epoch in its upper bits invalidates
// versions across frame reuse.
//
// Reads descend without coupling latches, and the hand-over-hand
// invariant is replaced by version validation. A warm descent pins and
// latches only the leaf: it routes through every internal node by an
// immutable decoded copy (buffer.Route) published on the node's frame,
// found with pool.Peek and used only if it was decoded at the frame's
// current version. Then it re-checks the parent's version: if it
// changed, a concurrent split may have moved the key, and the descent
// restarts from the root. The parent is not pinned, but a frame's
// version also changes when the frame gives up its page, so a parent
// evicted meanwhile fails the check as one that changed would. The root
// pointer is itself versioned (rootVer), so resolving the root and
// validating the first step form one atomic unit — there is no
// Root()-then-descend window.
//
// The step that builds a copy — the node's first visit after a load or a
// change — is the latched one. It holds at most one short per-node shared
// latch at a time (Go's race detector — and the flush path, which copies
// page contents under the exclusive latch — rules out truly latch-free
// byte reads, which is why a copy exists at all), and it keeps the parent
// it came from *pinned* while it fetches and latches the child, so a
// tiny pool still makes progress.
//
// Writers are optimistic too: Update and Delete (leaf-local by
// construction — deletion is lazy, leaves never merge) and Inserts into
// non-full leaves descend like readers and take one exclusive leaf
// latch. Only an insert that must split falls back to pessimistic
// top-down latch crabbing, holding exclusive latches just on the nodes
// that may split (ancestors are released as soon as a child with free
// space bounds the split). All modified versions are bumped before any
// latch is released, so no reader can validate a half-installed split.
//
// Interaction with pins and the flush path: every latched frame is
// pinned first, and the pool's flush paths (cleaner, eviction,
// checkpoint) only claim unpinned frames — so a flush never contends
// with a frame an index operation holds, and conversely an index read
// landing on a frame mid-flush simply waits out the copy under the
// frame latch. Flushes do not bump versions: they copy the logical
// image but never change it. Every exclusive frame latch drops the
// frame's decoded copy, so none outlives a change to its node, even one
// whose writer forgot the bump.
type OLCIndex struct {
	db   *DB
	st   *PageStore
	name string

	// root is the current root page id; rootVer counts root changes.
	// Readers sample rootVer, load root, pin+latch the node and
	// re-check rootVer — unchanged means the latched node is still the
	// root. Writers install a new root id, bump rootVer, then release
	// the old root's latch (which they hold during any root split).
	root    atomic.Uint64
	rootVer atomic.Uint64

	stats indexCounters
}

// Name returns the index name.
func (ix *OLCIndex) Name() string { return ix.name }

// Root returns the current root page id. Advisory: by the time the
// caller uses it the root may have changed; operations never use it
// (see the rootVer protocol above). For tests and tools.
func (ix *OLCIndex) Root() core.PageID { return core.PageID(ix.root.Load()) }

// Stats snapshots the operation and contention counters.
func (ix *OLCIndex) Stats() IndexStats { return ix.stats.snapshot() }

// latch takes n's frame latch, counting the wait if it is contended.
func (ix *OLCIndex) latch(n *pageRef, excl bool) {
	if !n.tryLatch(excl) {
		ix.stats.of(n.w).latchWaits.Add(1)
		n.latch(excl)
	}
}

// pinLatched pins page id and latches it. The node is not attached yet:
// the caller first validates the step that led to it.
func (ix *OLCIndex) pinLatched(w *sim.Worker, id core.PageID, excl bool) (pageRef, error) {
	n, err := ix.db.pin(w, id)
	if err == nil {
		ix.latch(&n, excl)
	}
	return n, err
}

// restartWait records one descent restart and, every few consecutive
// restarts, yields the processor so the writer being chased can finish.
func (ix *OLCIndex) restartWait(w *sim.Worker, attempt int) {
	ix.stats.of(w).restarts.Add(1)
	if attempt%4 == 3 {
		runtime.Gosched()
	}
}

// descend walks from the root to the leaf owning key and returns it
// pinned and latched — shared, or exclusively when excl is set (the
// leaf-local write path). The caller holds db.stateMu shared.
//
// Validation protocol, per step: read the node — its frame's version
// and decoded copy, or else, on the build step, pinned and latched —
// then re-check the version of the parent the step came from. A
// mismatch means the routing decision may be stale (the child may have
// split and the key moved right), so the descent restarts. For the
// first step the root pointer's own version plays the parent role.
func (ix *OLCIndex) descend(w *sim.Worker, key uint64, excl bool) (pageRef, error) {
	pool := ix.db.pool
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			ix.restartWait(w, attempt-1)
		}
		rv := ix.rootVer.Load()
		cur := core.PageID(ix.root.Load())
		// parent is the frame of the node that routed to cur, nil above
		// the root, and parentVer its version then; held is its handle,
		// pinned and unlatched, if the build step read it.
		var parent *buffer.Frame
		var parentVer uint64
		var held pageRef
		// valid reports whether the step that led to cur is still current.
		valid := func() bool {
			if parent == nil {
				return ix.rootVer.Load() == rv
			}
			return parent.Version() == parentVer
		}
		unpinParent := func() {
			if held.fr != nil {
				held.unpin()
				held = pageRef{}
			}
		}
		for {
			if fr := pool.Peek(cur); fr != nil {
				if rt := fr.RouteFor(cur); rt != nil {
					if !valid() {
						unpinParent()
						break // restart from the root
					}
					pool.Touch(w, fr)
					unpinParent()
					parent, parentVer = fr, rt.Ver
					cur = routeChild(rt.Node, key)
					continue
				}
			}
			n, err := ix.pinLatched(w, cur, false)
			if err != nil {
				unpinParent()
				return pageRef{}, err
			}
			if !valid() {
				n.unpin()
				unpinParent()
				break // restart from the root
			}
			if err := n.attach(ix.st); err != nil {
				unpinParent()
				return pageRef{}, err
			}
			if n.leaf() {
				if excl {
					// Re-take the latch exclusively and re-validate: the
					// leaf may have split in the gap (in which case the
					// parent's version — or rootVer for a root leaf —
					// changed and the key may belong right of here).
					n.unlatch()
					ix.latch(&n, true)
					if !valid() {
						n.unpin()
						unpinParent()
						break // restart from the root
					}
				}
				unpinParent()
				return n, nil
			}
			rt := n.decodeRoute(n.fr.Version())
			n.fr.SetRoute(rt)
			n.unlatch()
			unpinParent()
			held, parent, parentVer = n, n.fr, rt.Ver
			cur = routeChild(rt.Node, key)
		}
	}
}

// Lookup returns the RID stored under key.
func (ix *OLCIndex) Lookup(w *sim.Worker, key uint64) (core.RID, bool, error) {
	ix.stats.of(w).lookups.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	n, err := ix.descend(w, key, false)
	if err != nil {
		return core.RID{}, false, err
	}
	rid, found := n.lookup(key)
	n.unpin()
	return rid, found, nil
}

// Update changes the RID stored under an existing key.
func (ix *OLCIndex) Update(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.of(w).updates.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	n, err := ix.descend(w, key, true)
	if err != nil {
		return err
	}
	pos, found := n.leafSearch(key)
	if !found {
		n.unpin()
		return fmt.Errorf("engine: index %q has no key %d", ix.name, key)
	}
	n.setLeaf(pos, key, rid)
	n.fr.BumpVersion()
	return n.unpinDirty(db.log.Head())
}

// Delete removes a key (lazy deletion: leaves are never merged, so
// deletes stay leaf-local and need no crabbing).
func (ix *OLCIndex) Delete(w *sim.Worker, key uint64) (bool, error) {
	ix.stats.of(w).deletes.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	n, err := ix.descend(w, key, true)
	if err != nil {
		return false, err
	}
	pos, found := n.leafSearch(key)
	if !found {
		n.unpin()
		return false, nil
	}
	n.removeLeafAt(pos)
	n.fr.BumpVersion()
	return true, n.unpinDirty(db.log.Head())
}

// Insert adds key → rid. Duplicate keys are rejected. The fast path is
// optimistic (one exclusive leaf latch); a full leaf falls back to
// pessimistic top-down crabbing.
func (ix *OLCIndex) Insert(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.of(w).inserts.Add(1)
	db := ix.db
	defer db.rlockState(w).RUnlock()
	n, err := ix.descend(w, key, true)
	if err != nil {
		return err
	}
	pos, found := n.leafSearch(key)
	if found {
		n.unpin()
		return fmt.Errorf("%w: %d", ErrKeyExists, key)
	}
	if !n.full() {
		n.insertLeafAt(pos, key, rid)
		n.fr.BumpVersion()
		return n.unpinDirty(db.log.Head())
	}
	n.unpin()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			ix.restartWait(w, attempt-1)
		}
		done, err := ix.insertPessimistic(w, key, rid)
		if err != nil || done {
			return err
		}
	}
}

// heldNode is one exclusively latched, pinned node of a pessimistic
// descent; changed marks those the insert wrote to.
type heldNode struct {
	pageRef
	changed bool
}

// insertPessimistic is the split path: descend from the root holding
// exclusive latches hand-over-hand, releasing all held ancestors
// whenever the newly latched child has free space (a split from below
// stops there, so nothing above it can change). The retained stack is
// therefore "the deepest non-full node, then full nodes down to the
// leaf" — exactly the nodes a leaf split may touch. Returns done=false
// (and no error) when the root moved between loading and latching it;
// the caller restarts.
func (ix *OLCIndex) insertPessimistic(w *sim.Worker, key uint64, rid core.RID) (done bool, err error) {
	db := ix.db
	var stack []heldNode // latched top-down; stack[0] is the shallowest
	// release gives back everything held, deepest first, on success and
	// on errors alike (what a split got done must become visible either
	// way). The versions of all changed nodes are bumped before any latch
	// drops, so no reader can validate a half-installed split; changed
	// frames carry the log head as recLSN.
	release := func() error {
		for i := range stack {
			if stack[i].changed {
				stack[i].fr.BumpVersion()
			}
		}
		head := db.log.Head()
		var err error
		for i := len(stack) - 1; i >= 0; i-- {
			var e error
			if h := &stack[i]; h.changed {
				e = h.unpinDirty(head)
			} else {
				e = h.unpin()
			}
			if err == nil {
				err = e
			}
		}
		stack = nil
		return err
	}

	rv := ix.rootVer.Load()
	n, err := ix.pinLatched(w, core.PageID(ix.root.Load()), true)
	if err != nil {
		return false, err
	}
	if ix.rootVer.Load() != rv {
		// The root moved before we latched it; retry from the new root.
		n.unpin()
		return false, nil
	}
	if err := n.attach(ix.st); err != nil {
		return false, err
	}
	stack = append(stack, heldNode{pageRef: n})
	// From here on the root (and later the whole retained path) is
	// exclusively latched: no concurrent writer can change it, so the
	// descent needs no further validation.
	for !n.leaf() {
		if n, err = ix.pinLatched(w, n.route(key), true); err == nil {
			err = n.attach(ix.st)
		}
		if err != nil {
			release()
			return false, err
		}
		if !n.full() {
			// The child bounds any split from below: ancestors are safe.
			release()
		}
		stack = append(stack, heldNode{pageRef: n})
	}

	leaf := len(stack) - 1 // n is a copy of stack[leaf]: same frame, same bytes
	pos, found := n.leafSearch(key)
	if found {
		release()
		return true, fmt.Errorf("%w: %d", ErrKeyExists, key)
	}
	if !n.full() {
		// Another splitter made room while we walked down.
		n.insertLeafAt(pos, key, rid)
		stack[leaf].changed = true
		return true, release()
	}

	// Split the leaf, then install the separator, splitting full internal
	// nodes on the way up the retained stack. A new page comes back from
	// newPage latched: the moment the left sibling's NextPage points at
	// it, chain walkers may try to latch it. New siblings go on top of the
	// stack, where release finds them; they take no separator.
	rn, err := db.newPage(w, ix.st, 0, page.FlagIndex|page.FlagLeaf)
	if err != nil {
		release()
		return true, err
	}
	// A key beyond the last leaf's last entry is taken for one of an
	// ascending load: the leaf stays full and the new sibling starts with
	// that key alone, where halving would leave every leaf but the last
	// half empty for good.
	mid := n.count() / 2
	if pos == n.count() && n.NextPage() == core.InvalidPageID {
		mid = n.count()
	}
	carryKey, carryChild := splitLeaf(&n, &rn, mid, key, rid), rn.fr.ID
	stack[leaf].changed = true
	stack = append(stack, heldNode{rn, true})
	for i := leaf - 1; i >= 0; i-- {
		h := stack[i].pageRef
		if !h.full() {
			h.insertIntAt(carryKey, carryChild)
			stack[i].changed = true
			carryChild = core.InvalidPageID
			break
		}
		in, err := db.newPage(w, ix.st, 0, page.FlagIndex)
		if err != nil {
			release() // splits so far stay installed
			return true, err
		}
		carryKey, carryChild = splitInternal(&h, &in, carryKey, carryChild), in.fr.ID
		stack[i].changed = true
		stack = append(stack, heldNode{in, true})
	}
	if carryChild != core.InvalidPageID {
		// The carry consumed the whole retained stack, so the node that
		// split last was the shallowest retained one — which by the
		// crabbing invariant can only be the root (any other retained
		// top had free space when latched, and has been exclusively
		// ours since): grow the tree by one level. This covers both a
		// full root leaf (the upward loop never ran) and a full
		// internal root.
		nn, err := db.newPage(w, ix.st, 0, page.FlagIndex)
		if err != nil {
			release()
			return true, err
		}
		nn.setRoot(stack[0].fr.ID, carryKey, carryChild)
		stack = append(stack, heldNode{nn, true})
		// Publish the new root, then bump rootVer: a reader that still
		// descends from the old root will fail its version check (the
		// old root's version bumps in release before any latch drops).
		ix.root.Store(uint64(nn.fr.ID))
		ix.rootVer.Add(1)
	}
	return true, release()
}

// Range visits keys in [lo, hi] in order until fn returns false. Each
// leaf's entries are buffered under its shared latch and the callback
// runs with no latch held, so it may perform table reads. Keys inserted
// concurrently may or may not be seen.
func (ix *OLCIndex) Range(w *sim.Worker, lo, hi uint64, fn func(key uint64, rid core.RID) bool) error {
	ix.stats.of(w).scans.Add(1)
	db := ix.db
	state := db.rlockState(w)
	n, err := ix.descend(w, lo, false)
	var items []indexEntry
	for err == nil {
		// n is pinned and share-latched here, stateMu held shared.
		var done bool
		items, done = n.leafRange(lo, hi, items[:0])
		next := n.NextPage()
		n.unpin()
		state.RUnlock()
		for _, it := range items {
			if !fn(it.key, it.rid) {
				return nil
			}
		}
		if done || next == core.InvalidPageID {
			return nil
		}
		state.RLock()
		if n, err = ix.pinLatched(w, next, false); err == nil {
			err = n.attach(ix.st)
		}
	}
	state.RUnlock()
	return err
}
