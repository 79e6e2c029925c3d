package buffer

import (
	"fmt"
	"testing"

	"ipa/internal/core"
)

// driveDeterministicScript runs a fixed, single-threaded workload mixing
// every pool operation that can influence eviction decisions — GetNew,
// hit/miss Gets, dirty and clean unpins, cleaner passes, FlushOldest,
// Drop and FlushAll — and returns the order in which pages reached the
// store. That order is the observable consequence of the CLOCK policy:
// it decides which physical page a flush lands on and therefore the
// update-size distributions of the paper's Tables 1/9/10/11.
func driveDeterministicScript(t *testing.T, cfg Config) (*fakeStore, Stats) {
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
// pool produces for the script above with the config in
// TestShards1EvictionOrderGolden. Captured from the unsharded pool at
// its default cleaner batch of 8 pages; Config.Shards=1 (the default,
// used by all paper experiments) must reproduce it bit-identically.
var deterministicGolden = []core.PageID{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
	22, 23, 24, 21, 21, 3, 5, 1, 7, 21, 3, 7, 23, 1, 3, 17, 11, 9, 13, 19,
	21, 21, 3, 23, 1, 5, 19, 7, 15, 1, 19, 7, 23, 5, 3, 15, 19, 11, 17, 13,
	23, 9, 19, 5, 7, 15, 1, 11, 5, 19, 3,
}

// deterministicGoldenStats is the seed pool's counter snapshot for the
// same script, and the one gauge it did not have: every one of the 8
// frames has been handed out by the end.
var deterministicGoldenStats = Stats{
	Hits: 66, Misses: 134, Evictions: 149, EvictionFlush: 28, CleanerFlushes: 40,
	FramesAllocated: 8,
}

func TestShards1EvictionOrderGolden(t *testing.T) {
	st, stats := driveDeterministicScript(t, Config{
		Frames: 8, PageSize: 64, DirtyThreshold: 0.5,
	})
	got := st.flushes
	if fmt.Sprint(got) != fmt.Sprint(deterministicGolden) {
		t.Errorf("Shards=1 flush order diverged from seed\n got: %v\nwant: %v", got, deterministicGolden)
	}
	if stats != deterministicGoldenStats {
		t.Errorf("Shards=1 stats diverged from seed\n got: %+v\nwant: %+v", stats, deterministicGoldenStats)
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
	})
	sharded, _ := driveDeterministicScript(t, Config{
		Frames: 8, PageSize: 64, DirtyThreshold: 0.5, Shards: 4,
	})
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
