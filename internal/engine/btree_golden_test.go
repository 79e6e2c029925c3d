package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"ipa/internal/core"
)

// goldenTreeFingerprint hashes every reachable node of a tree — page id,
// flags, entry count, entries, leaf chaining — plus the Range iteration
// order, into one stable hex digest. Any change to the on-page node
// layout, the split algorithm, allocation order, or iteration order
// changes the digest.
func goldenTreeFingerprint(t *testing.T, db *DB, ix Index) string {
	t.Helper()
	st := db.Store("main")
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	queue := []core.PageID{ix.(interface{ Root() core.PageID }).Root()}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n, err := db.pinPage(nil, st, id, false)
		if err != nil {
			t.Fatalf("pin node %d: %v", id, err)
		}
		put(uint64(id))
		put(uint64(n.Flags()))
		put(uint64(n.count()))
		if n.leaf() {
			for i := 0; i < n.count(); i++ {
				rid := n.leafRID(i)
				put(n.leafKey(i))
				put(uint64(rid.Page))
				put(uint64(rid.Slot))
			}
			put(uint64(n.NextPage()))
		} else {
			put(uint64(n.child0()))
			queue = append(queue, n.child0())
			for i := 0; i < n.count(); i++ {
				put(n.intKey(i))
				put(uint64(n.intChild(i)))
				queue = append(queue, n.intChild(i))
			}
		}
		n.unpin()
	}
	// Fold in the observable iteration order as well.
	if err := ix.Range(nil, 0, 1<<63, func(k uint64, rid core.RID) bool {
		put(k)
		put(uint64(rid.Page))
		put(uint64(rid.Slot))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCoarseTreeGoldenLayout pins the physical page layout and iteration
// order of the tree to the digest captured from the coarse-latched tree
// (since deleted) before the index layer grew its interface; the name
// records where the digest came from. On shuffled keys the OLC tree makes
// the same splits and allocates pages in the same order, so it builds the
// byte-identical tree. If this fails, the tree changed behaviour — that
// is a bug unless the layout change is deliberate and documented.
func TestCoarseTreeGoldenLayout(t *testing.T) {
	runOnTree(t, func(t *testing.T) {
		r, ix := newIndexRig(t, 64)
		rng := rand.New(rand.NewSource(7))
		keys := rng.Perm(1500)
		for _, k := range keys {
			key := uint64(k + 1)
			rid := core.RID{Page: core.PageID(key*3 + 1), Slot: uint16(key % 7)}
			if err := ix.Insert(nil, key, rid); err != nil {
				t.Fatalf("insert %d: %v", key, err)
			}
		}
		for _, k := range keys {
			key := uint64(k + 1)
			if key%3 == 0 {
				if _, err := ix.Delete(nil, key); err != nil {
					t.Fatalf("delete %d: %v", key, err)
				}
			} else if key%5 == 0 {
				if err := ix.Update(nil, key, core.RID{Page: core.PageID(key + 100000)}); err != nil {
					t.Fatalf("update %d: %v", key, err)
				}
			}
		}
		const want = "5420316e61bd1eb2"
		if got := goldenTreeFingerprint(t, r.db, ix); got != want {
			t.Fatalf("tree fingerprint = %s, want %s", got, want)
		}
	})
}
