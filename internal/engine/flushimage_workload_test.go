package engine_test

import (
	"fmt"
	"testing"

	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

// TestFlushedImageWorkloads runs the flushed-image property (see
// TestFlushedImageApplier) under concurrent terminals: a small TPC-B,
// whose field updates patch tuples in place and whose history inserts
// allocate pages, and a YCSB mix on an index that starts with a
// single leaf, so the inserts of the load and of the run split it level
// by level. The pool holds a fraction of either database and is sharded,
// with the eager cleaner on, so flushes come from evictions, cleaner
// passes and log reclaims while other terminals change the same pages.
func TestFlushedImageWorkloads(t *testing.T) {
	for _, cell := range engine.RegionCells {
		for _, mvcc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mvcc=%v", cell.Name, mvcc), func(t *testing.T) {
				g := flash.Geometry{
					Chips: 4, BlocksPerChip: 64, PagesPerBlock: 16,
					PageSize: 1024, OOBSize: 64, Cell: flash.SLC,
				}
				tl := sim.NewTimeline(g.Chips)
				arr, err := flash.New(flash.Config{
					Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
				}, tl)
				if err != nil {
					t.Fatal(err)
				}
				dev := noftl.Open(arr)
				if _, err := dev.CreateRegion(cell.Config("main", 64)); err != nil {
					t.Fatal(err)
				}
				db, err := engine.New(dev, engine.Options{
					PageSize: 1024, BufferFrames: 24, PoolShards: 4, Timeline: tl,
					LogCapacity: 1 << 18, LogReclaimThreshold: 0.4,
					MVCC: mvcc,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := db.VerifyFlushedImages(func(err error) { t.Error(err) }); err != nil {
					t.Fatal(err)
				}

				loader := tl.NewWorker()
				terminals := make([]*sim.Worker, 4)
				run := func(wl workload.Workload, txs int) {
					t.Helper()
					for i := range terminals {
						terminals[i] = tl.NewWorker()
						terminals[i].SetNow(loader.Now())
					}
					res, err := workload.RunParallel(wl, terminals, txs, 7)
					if err != nil {
						t.Fatalf("%s: %v", wl.Name(), err)
					}
					if res.Transactions == 0 {
						t.Fatalf("%s: nothing committed", wl.Name())
					}
				}

				b := workload.NewTPCB(db, "main", 2, 400)
				if err := b.Load(loader); err != nil {
					t.Fatal(err)
				}
				run(b, 600)

				y := workload.NewYCSB(db, "main", 400)
				y.ReadPct, y.UpdatePct, y.InsertPct = 40, 35, 20 // 5 % scans
				y.Zipfian = true
				if err := y.Load(loader); err != nil {
					t.Fatal(err)
				}
				run(y, 1200)
				if err := db.FlushAll(loader); err != nil {
					t.Fatal(err)
				}

				st := db.Store("main").Stats()
				if flushed := st.FlushesDelta + st.FlushesOOP; flushed < 500 {
					t.Errorf("%d pages flushed; the pool is meant to be too small for the run", flushed)
				}
				if ix := y.Index().Stats(); ix.Inserts < 500 {
					t.Errorf("%d index inserts", ix.Inserts)
				}
			})
		}
	}
}
