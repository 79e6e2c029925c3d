package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"ipa/internal/core"
)

// checkLockTable holds the table to the model: the same locks with the
// same owners, every one reachable from its home slot without crossing a
// free slot (what backward-shift deletion must preserve), no shard more
// than half full.
func checkLockTable(t *testing.T, step int, lt *lockTable, model map[core.RID]uint64) {
	t.Helper()
	held := 0
	for si := range lt.shards {
		s := &lt.shards[si]
		held += s.n
		if 2*s.n > len(s.slots) {
			t.Fatalf("step %d: shard %d holds %d locks in %d slots", step, si, s.n, len(s.slots))
		}
		mask := len(s.slots) - 1
		for i, e := range s.slots {
			if e.owner == 0 {
				continue
			}
			if want, ok := model[e.rid]; !ok || want != e.owner {
				t.Fatalf("step %d: %v held by %d, model says %d (held %v)", step, e.rid, e.owner, want, ok)
			}
			for j := s.home(lockHash(e.rid)); j != i; j = (j + 1) & mask {
				if s.slots[j].owner == 0 {
					t.Fatalf("step %d: %v at slot %d is cut off from its home by free slot %d", step, e.rid, i, j)
				}
			}
		}
	}
	if held != len(model) {
		t.Fatalf("step %d: table holds %d locks, model %d", step, held, len(model))
	}
}

// The lock table against a map model: a seeded stream of acquisitions
// (fresh, re-acquired, conflicting), releases by the owner and by other
// transactions, and clears, over few enough RIDs that shards and probe
// runs collide; then one transaction holding 10 000 locks.
func TestLockTableModel(t *testing.T) {
	var lt lockTable
	model := map[core.RID]uint64{}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200_000; step++ {
		rid := core.RID{Page: core.PageID(1 + rng.Intn(30)), Slot: uint16(rng.Intn(40))}
		tx := uint64(1 + rng.Intn(6))
		switch op := rng.Intn(1000); {
		case op < 550:
			ok, fresh, owner := lt.acquire(rid, tx)
			cur, held := model[rid]
			if !held {
				model[rid], cur = tx, tx
			}
			if ok != (cur == tx) || fresh != !held || owner != cur {
				t.Fatalf("step %d: acquire(%v, %d) = %v, %v, %d; model owner %d, held %v",
					step, rid, tx, ok, fresh, owner, cur, held)
			}
		case op < 999:
			lt.release(rid, tx)
			if model[rid] == tx {
				delete(model, rid)
			}
		default:
			lt.clear()
			clear(model)
		}
		if step%997 == 0 {
			checkLockTable(t, step, &lt, model)
		}
	}
	checkLockTable(t, -1, &lt, model)

	const big, owner, other = 10_000, 100, 101
	var rids []core.RID
	for i := 0; len(rids) < big; i++ {
		rid := core.RID{Page: core.PageID(1000 + i/97), Slot: uint16(i % 97)}
		if ok, fresh, _ := lt.acquire(rid, owner); !ok || !fresh {
			t.Fatalf("big transaction: lock %d of %v: ok %v, fresh %v", i, rid, ok, fresh)
		}
		model[rid] = owner
		rids = append(rids, rid)
	}
	checkLockTable(t, big, &lt, model)
	for _, rid := range rids {
		if ok, fresh, cur := lt.acquire(rid, owner); !ok || fresh || cur != owner {
			t.Fatalf("re-acquiring %v: %v, %v, %d", rid, ok, fresh, cur)
		}
		if ok, _, cur := lt.acquire(rid, other); ok || cur != owner {
			t.Fatalf("%v granted to %d while %d holds it (owner %d)", rid, other, owner, cur)
		}
		lt.release(rid, other) // not the owner: changes nothing
	}
	checkLockTable(t, big+1, &lt, model)
	lt.releaseAll(rids, owner)
	for _, rid := range rids {
		delete(model, rid)
	}
	checkLockTable(t, big+2, &lt, model)
	lt.clear()
	for si := range lt.shards {
		if n := len(lt.shards[si].slots); n != 0 {
			t.Fatalf("shard %d keeps %d slots after clear", si, n)
		}
	}
	// A shard the big transaction grew gives its memory back once empty.
	for _, rid := range rids {
		lt.acquire(rid, owner)
	}
	lt.releaseAll(rids, owner)
	for si := range lt.shards {
		if n := len(lt.shards[si].slots); n > maxIdleLockSlots {
			t.Errorf("empty shard %d keeps %d slots", si, n)
		}
	}
}

// Goroutines taking and dropping locks on a small shared RID space: a
// lock is granted to at most one of them at a time.
func TestLockTableConcurrentExclusion(t *testing.T) {
	var lt lockTable
	const goroutines, rounds, space = 8, 20_000, 64
	var holder [space]atomic.Uint64
	var wg sync.WaitGroup
	for g := uint64(1); g <= goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range rounds {
				k := rng.Intn(space)
				rid := core.RID{Page: core.PageID(1 + k/8), Slot: uint16(k % 8)}
				ok, fresh, _ := lt.acquire(rid, g)
				if !ok {
					continue
				}
				if !fresh || !holder[k].CompareAndSwap(0, g) {
					t.Errorf("%v granted to %d while %d holds it", rid, g, holder[k].Load())
					return
				}
				holder[k].Store(0)
				lt.release(rid, g)
			}
		}()
	}
	wg.Wait()
	for si := range lt.shards {
		if n := lt.shards[si].n; n != 0 {
			t.Errorf("shard %d holds %d locks after every release", si, n)
		}
	}
}

// Between the last field of one shard and the first of the next lies a
// whole line, so no line holds fields of two shards.
func TestLockShardsOwnTheirLines(t *testing.T) {
	fields := unsafe.Offsetof(lockShard{}.slots) + unsafe.Sizeof(lockShard{}.slots)
	if gap := unsafe.Sizeof(lockShard{}) - fields; gap < 64 {
		t.Fatalf("lockShard has %d bytes of fields and %d of padding, want a 64-byte line", fields, gap)
	}
}
