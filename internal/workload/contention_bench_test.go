package workload

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
)

// BenchmarkTPCBFlashParallel is embedded TPC-B with the database on
// flash, the regime of the benchmark's tpcb-flash workload at an eighth
// of its rows: 16 SLC chips of 4 KiB pages under one [2×4] region with
// 25 % over-provisioning and about 1.6× the loaded database in raw
// pages, a pool cut to 10 % of the loaded pages in 8 shards, the eager
// cleaner (12.5 % of the frames dirty) and a 16 MiB log that reclaims at
// 35 %. So terminals miss and fetch, evictions and cleaner passes flush,
// log reclaims checkpoint, and a full chip collects garbage inline under
// its lock. A warm-up of 20 000 transactions, untimed, starts the
// collector (gc_erases/op says it runs in the timed phase). Then b.RunParallel runs one terminal per goroutine, each
// with its own sim.Worker; an op is one transaction attempted, and a
// no-wait lock conflict counts as one too (reported as aborts/op).
//
// `make contention` runs it at two goroutines under an execution trace
// and prints where they blocked and how long a woken one waited to run;
// `make scaling` prints it beside the engine's three path benchmarks.
func BenchmarkTPCBFlashParallel(b *testing.B) {
	const (
		branches, accountsPerBranch = 32, 2500
		pagesPerBlock, chips        = 64, 16
		warmup                      = 20000
	)
	physPages := branches * accountsPerBranch * 62 / 1000 // tpcb-flash's pages per 1000 rows
	db, tl, err := engine.Open(engine.Spec{
		Geometry: flash.Geometry{
			Chips: chips, BlocksPerChip: physPages/(chips*pagesPerBlock) + 1,
			PagesPerBlock: pagesPerBlock, PageSize: 4096, Cell: flash.SLC,
		},
		Regions: []noftl.RegionConfig{{Name: "main", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4), OverProvision: 0.25}},
		Options: engine.Options{
			BufferFrames: physPages / 16, PoolShards: 8, DirtyThreshold: 0.125,
			LogCapacity: 16 << 20, LogReclaimThreshold: 0.35,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	wl := NewTPCB(db, "main", branches, accountsPerBranch)
	loader := tl.NewWorker()
	if err := wl.Load(loader); err != nil {
		b.Fatal(err)
	}
	if err := db.ResizePool(loader, db.Store("main").Region().MappedPages()/10); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for range warmup {
		if _, err := wl.RunOne(loader, rng); err != nil {
			b.Fatal(err)
		}
	}

	gcErases := func() uint64 {
		s, err := db.Stats()
		if err != nil {
			b.Fatal(err)
		}
		return s.Regions["main"].GCErases
	}
	erased := gcErases()
	var seeds, aborts atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := tl.NewWorker()
		w.SetNow(loader.Now())
		rng := rand.New(rand.NewSource(int64(seeds.Add(1))))
		for pb.Next() {
			if _, err := wl.RunOne(w, rng); errors.Is(err, engine.ErrLockConflict) {
				aborts.Add(1)
			} else if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(aborts.Load())/float64(b.N), "aborts/op")
	b.ReportMetric(float64(gcErases()-erased)/float64(b.N), "gc_erases/op")
}
