package engine

import (
	"encoding/binary"
	"errors"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/page"
)

// The B+tree's on-page nodes. Index pages live in a region and move
// through the same buffer pool and flush path as heap pages, so index
// updates also benefit from In-Place Appends ("frequently updated tables
// *or indices*", paper Sec. 1). The tree that walks them is OLCIndex
// (olctree.go).
//
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

// --- node accessors ----------------------------------------------------
//
// A node is a pageRef whose page carries FlagIndex: the tree reads and
// changes nodes through these methods, under the handle's latch.

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

// decodeRoute copies what route reads of the internal node n — child0,
// then each entry's key and child — into a buffer.Route stamped with ver,
// the version of n's frame read under the latch.
func (n *pageRef) decodeRoute(ver uint64) *buffer.Route {
	c := n.count()
	node := make([]uint64, 1+2*c)
	node[0] = uint64(n.child0())
	for i := 0; i < c; i++ {
		node[1+2*i], node[2+2*i] = n.intKey(i), uint64(n.intChild(i))
	}
	return &buffer.Route{ID: n.fr.ID, Ver: ver, Node: node}
}

// routeChild is route over a node decodeRoute made.
func routeChild(node []uint64, key uint64) core.PageID {
	lo, hi := 0, len(node)/2
	for lo < hi {
		mid := (lo + hi) / 2
		if node[1+2*mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return core.PageID(node[2*lo])
}

// --- node changes ------------------------------------------------------
//
// Each runs under the exclusive latches of the nodes it names; the
// caller bumps their versions and releases them.

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
