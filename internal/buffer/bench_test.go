package buffer

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ipa/internal/core"
)

// TestHitPathZeroAllocs pins the PR 2 zero-alloc invariant on the pool's
// hot path: a buffer hit (Get of a resident page) plus a clean Unpin
// must not allocate, in both the single-shard and sharded pools.
func TestHitPathZeroAllocs(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := newFakeStore(64)
			for id := core.PageID(1); id <= 16; id++ {
				img := make([]byte, 64)
				img[0] = byte(id)
				st.pages[id] = img
			}
			p, err := New(Config{
				Frames: 32, PageSize: 64, Shards: shards, DirtyThreshold: 2.0,
			}, st)
			if err != nil {
				t.Fatal(err)
			}
			// Make all 16 pages resident (the misses may allocate; that is
			// the cold path).
			for id := core.PageID(1); id <= 16; id++ {
				fr, err := p.Get(nil, id)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Unpin(nil, fr, false, 0); err != nil {
					t.Fatal(err)
				}
			}
			id := core.PageID(1)
			allocs := testing.AllocsPerRun(200, func() {
				fr, err := p.Get(nil, id)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Unpin(nil, fr, false, 0); err != nil {
					t.Fatal(err)
				}
				id = id%16 + 1
			})
			if allocs != 0 {
				t.Errorf("hit path allocates %v per op, want 0", allocs)
			}
		})
	}
}

// The same invariant for an uncontended miss: with the victim's frame
// buffer already bound and its flushed-image capacity kept, fetching a
// page over a clean victim allocates nothing — in particular no loadDone
// channel, which only a second getter of the page in flight makes.
func TestMissPathZeroAllocs(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const pages = 64
			st := newFakeStore(64)
			for id := core.PageID(1); id <= pages; id++ {
				img := make([]byte, 64)
				img[0] = byte(id)
				st.pages[id] = img
			}
			p, err := New(Config{Frames: 16, PageSize: 64, Shards: shards, DirtyThreshold: 2.0}, st)
			if err != nil {
				t.Fatal(err)
			}
			id := core.PageID(1)
			cycle := func() {
				fr, err := p.Get(nil, id)
				if err != nil {
					t.Fatal(err)
				}
				if fr.Data[0] != byte(id) {
					t.Fatalf("page %d holds %d", id, fr.Data[0])
				}
				if err := p.Unpin(nil, fr, false, 0); err != nil {
					t.Fatal(err)
				}
				id = id%pages + 1
			}
			// Two rounds over four times the pool: every frame is bound and
			// has held a page, and each Get from here on is a miss.
			for i := 0; i < 2*pages; i++ {
				cycle()
			}
			before := p.Stats().Misses
			allocs := testing.AllocsPerRun(200, cycle)
			if got := p.Stats().Misses - before; got != 201 {
				t.Fatalf("%d misses in 201 cycles; the loop must miss every time", got)
			}
			if allocs != 0 {
				t.Errorf("uncontended miss allocates %v per op, want 0", allocs)
			}
		})
	}
}

// The memory guard next to TestHitPathZeroAllocs: a pool's cost follows
// the pages bound to it, not its configured capacity. The served stacks
// run 131072 frames of 1 KiB over a database of a few thousand pages;
// the unbound frames must cost their headers only, and binding pages
// must cost those pages only — across shards, stealing included.
func TestPoolLazyFrames(t *testing.T) {
	const frames, pageSize, shards = 131072, 1024, 8
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	p, err := New(Config{Frames: frames, PageSize: pageSize, Shards: shards, DirtyThreshold: 2.0}, newFakeStore(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	empty := heap() - base
	t.Logf("empty pool of %d x %d B frames retains %.1f MB", frames, pageSize, float64(empty)/(1<<20))
	if empty > 2<<20 {
		t.Fatalf("empty pool retains %d KB, want < 2 MB: one pointer a frame (eager pool: %d MB)", empty>>10, frames*pageSize>>20)
	}
	if got := p.Stats().FramesAllocated; got != 0 {
		t.Errorf("FramesAllocated = %d in an empty pool", got)
	}

	// Bind 4096 pages: each costs its frame buffer, nothing else grows.
	const bound = 4096
	for id := core.PageID(1); id <= bound; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Data) != pageSize {
			t.Fatalf("page %d: bound frame has %d bytes of Data", id, len(fr.Data))
		}
		fr.Data[0] = byte(id)
		if err := p.Unpin(nil, fr, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().FramesAllocated; got != bound {
		t.Errorf("FramesAllocated = %d after binding %d pages", got, bound)
	}
	grown := heap() - base - empty
	if max := uint64(bound * pageSize * 5 / 4); grown > max {
		t.Errorf("binding %d pages grew the pool by %d KB, want <= %d KB", bound, grown>>10, max>>10)
	}
	// A re-bound frame keeps its buffer, and GetNew hands it out zeroed.
	if err := p.Drop(1); err != nil {
		t.Fatal(err)
	}
	fr, err := p.GetNew(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[0] != 0 {
		t.Error("GetNew returned a dirty buffer")
	}
	p.Unpin(nil, fr, false, 0)
	runtime.KeepAlive(p)
}

// BenchmarkBufferGet measures the pool hit path (Get of a resident page
// + clean Unpin) under 1→16 concurrent goroutines, sharded vs unsharded.
// This is the microbenchmark behind the PR 4 tentpole: with Shards=1
// every hit serialises on one mutex; with Shards=16 hits on different
// pages ride independent shard locks and should scale near-linearly
// until the memory system saturates. Run with:
//
//	go test -bench BufferGet -run xxx ./internal/buffer/
func BenchmarkBufferGet(b *testing.B) {
	const pages = 1024
	for _, shards := range []int{1, 16} {
		for _, gs := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, gs), func(b *testing.B) {
				st := newFakeStore(64)
				for id := core.PageID(1); id <= pages; id++ {
					st.pages[id] = make([]byte, 64)
				}
				p, err := New(Config{
					Frames: 2 * pages, PageSize: 64, Shards: shards, DirtyThreshold: 2.0,
				}, st)
				if err != nil {
					b.Fatal(err)
				}
				for id := core.PageID(1); id <= pages; id++ {
					fr, err := p.Get(nil, id)
					if err != nil {
						b.Fatal(err)
					}
					if err := p.Unpin(nil, fr, false, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N/gs + 1
				for g := 0; g < gs; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						// Golden-ratio stride walks every page, decorrelated
						// across goroutines so hits spread over all shards.
						x := uint64(g) * 0x9E3779B97F4A7C15
						for i := 0; i < per; i++ {
							x += 0x9E3779B97F4A7C15
							id := core.PageID(1 + (x>>40)%pages)
							fr, err := p.Get(nil, id)
							if err != nil {
								panic(err)
							}
							if err := p.Unpin(nil, fr, false, 0); err != nil {
								panic(err)
							}
						}
					}(g)
				}
				wg.Wait()
			})
		}
	}
}
