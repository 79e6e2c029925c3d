package buffer

import (
	"fmt"
	"testing"

	"ipa/internal/core"
)

// driveDeterministicScript runs a fixed, single-threaded workload mixing
// every pool operation that can influence eviction decisions — GetNew,
// hit/miss Gets, dirty and clean unpins, cleaner passes, FlushOldest,
// Drop (unless drop is false) and FlushAll — and returns the order in
// which pages reached the store. That order is the observable
// consequence of the CLOCK policy: it decides which physical page a flush
// lands on and therefore the update-size distributions of the paper's
// Tables 1/9/10/11.
func driveDeterministicScript(t *testing.T, cfg Config, drop bool) (*fakeStore, Stats) {
	t.Helper()
	st := newFakeStore(cfg.PageSize)
	p, err := New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: allocate 24 fresh pages through the pool (forces evictions).
	for id := core.PageID(1); id <= 24; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(id)
		if err := p.Unpin(nil, fr, true, core.LSN(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: LCG-driven mixed reads and writes over the 24 pages.
	x := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		id := core.PageID(1 + (x>>33)%24)
		fr, err := p.Get(nil, id)
		if err != nil {
			t.Fatalf("step %d page %d: %v", i, id, err)
		}
		dirty := (x>>32)&3 == 0 // 25% of accesses write
		if dirty {
			fr.Data[1]++
		}
		if err := p.Unpin(nil, fr, dirty, core.LSN(1000+i)); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 50:
			if _, err := p.FlushOldest(nil, 3); err != nil {
				t.Fatal(err)
			}
		case 100:
			if err := p.CleanerPass(nil); err != nil {
				t.Fatal(err)
			}
		case 150:
			if !drop {
				break
			}
			// Drop whatever clean resident pages the LCG points at.
			for _, d := range []core.PageID{5, 11, 17} {
				if err := p.Drop(d); err != nil && d != 0 {
					// Pinned is impossible here; dirty pages are dropped too
					// in the seed semantics (Drop discards without flushing).
					t.Fatal(err)
				}
			}
		}
	}
	// Phase 3: final checkpoint-style flush.
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	return st, p.Stats()
}

// deterministicGolden is the store-flush order the seed (pre-sharding)
// pool produces for the script above without its drops, with the config
// in TestShards1EvictionOrderGolden, at its default cleaner batch of 8
// pages; deterministicGoldenStats is the counter snapshot that goes with
// it, and the one gauge the seed did not have: every one of the 8 frames
// has been handed out by the end. No frame is ever free in that run, so
// Config.Shards=1 (the default, used by all paper experiments) must
// reproduce both bit-identically: the free list changes no CLOCK choice.
var deterministicGolden = []core.PageID{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
	22, 23, 24, 21, 21, 3, 5, 1, 7, 21, 3, 7, 23, 1, 3, 17, 11, 9, 13, 19,
	21, 21, 3, 23, 1, 5, 19, 7, 15, 1, 19, 7, 23, 5, 3, 15, 19, 11, 17, 13,
	23, 5, 9, 19, 5, 7, 15, 1, 11, 5, 19, 3,
}

var deterministicGoldenStats = Stats{
	Hits: 66, Misses: 134, Evictions: 150, EvictionFlush: 29, CleanerFlushes: 40,
	FramesAllocated: 8,
}

// droppedGolden is the same script with its drops: the frames Drop
// unbinds at step 150 go on the shard's free list, and the next misses
// take them before the hand moves. Up to the drop the order is the
// seed's. After it, the seed pool's hand evicted a resident page before
// it came round to a dropped frame: against its 66 hits, 134 misses and
// 149 evictions on this script, one miss and one eviction are saved.
var droppedGolden = []core.PageID{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
	22, 23, 24, 21, 21, 3, 5, 1, 7, 21, 3, 7, 23, 1, 3, 17, 11, 9, 13, 19,
	21, 21, 3, 23, 1, 5, 19, 7, 15, 1, 19, 7, 23, 5, 3, 15, 19, 11, 17, 13,
	23, 9, 5, 19, 7, 15, 1, 11, 5, 3, 19,
}

var droppedGoldenStats = Stats{
	Hits: 67, Misses: 133, Evictions: 148, EvictionFlush: 28, CleanerFlushes: 40,
	FramesAllocated: 8,
}

func TestShards1EvictionOrderGolden(t *testing.T) {
	for _, c := range []struct {
		drop  bool
		order []core.PageID
		stats Stats
	}{
		{false, deterministicGolden, deterministicGoldenStats},
		{true, droppedGolden, droppedGoldenStats},
	} {
		st, stats := driveDeterministicScript(t, Config{
			Frames: 8, PageSize: 64, DirtyThreshold: 0.5,
		}, c.drop)
		if got := st.flushes; fmt.Sprint(got) != fmt.Sprint(c.order) {
			t.Errorf("drop=%v: Shards=1 flush order diverged\n got: %v\nwant: %v", c.drop, got, c.order)
		}
		if stats != c.stats {
			t.Errorf("drop=%v: Shards=1 stats diverged\n got: %+v\nwant: %+v", c.drop, stats, c.stats)
		}
	}
}

// TestShardedScriptIntegrity runs the same script against a sharded pool.
// Eviction order is shard-local there (no golden), but the script must
// complete and — for every page not Dropped mid-script — the final store
// contents must be byte-identical to the single-shard run: the script's
// logical page trajectory does not depend on pool internals, so sharding
// may change flush scheduling but never what ends up durable.
// (Dropped pages 5/11/17 are excluded: Drop discards unflushed changes,
// so their refetched base, and hence final content, depends on cleaner
// timing in both seed and sharded pools alike.)
func TestShardedScriptIntegrity(t *testing.T) {
	single, _ := driveDeterministicScript(t, Config{
		Frames: 8, PageSize: 64, DirtyThreshold: 0.5,
	}, true)
	sharded, _ := driveDeterministicScript(t, Config{
		Frames: 8, PageSize: 64, DirtyThreshold: 0.5, Shards: 4,
	}, true)
	dropped := map[core.PageID]bool{5: true, 11: true, 17: true}
	for id := core.PageID(1); id <= 24; id++ {
		if dropped[id] {
			continue
		}
		s, ok1 := single.pages[id]
		g, ok2 := sharded.pages[id]
		if !ok1 || !ok2 {
			t.Fatalf("page %d missing from store (single=%v sharded=%v)", id, ok1, ok2)
		}
		if string(s) != string(g) {
			t.Errorf("page %d final content differs between single-shard and sharded pool", id)
		}
	}
}
