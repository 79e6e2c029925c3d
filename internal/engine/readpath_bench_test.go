package engine

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// scalingDB is the stack of the two scaling benchmarks: 4 SLC chips
// under one [2×4] region "data", a 1024-frame pool in 8 shards. opts
// adds to that.
func scalingDB(b *testing.B, opts Options) (*DB, *sim.Timeline) {
	g := flash.Geometry{
		Chips: 4, BlocksPerChip: 64, PagesPerBlock: 32,
		PageSize: 4096, OOBSize: 128, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8}, tl)
	if err != nil {
		b.Fatal(err)
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "data", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4),
		BlocksPerChip: g.BlocksPerChip, OverProvision: 0.15,
	}); err != nil {
		b.Fatal(err)
	}
	opts.PageSize, opts.BufferFrames, opts.PoolShards = g.PageSize, 1024, 8
	opts.Timeline = tl
	db, err := New(dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	return db, tl
}

// BenchmarkReadPathParallel is the embedded read path of a YCSB point
// read — an OLC index Lookup and the Table.Read of the row it names, every
// page resident in the buffer pool — under b.RunParallel, one sim.Worker
// per goroutine. `make scaling` runs it at -cpu 1,2 and prints both ns/op
// and their ratio: two goroutines that wrote no cache line in common
// would take half the wall time per operation of one, so the ratio is
// 0.5 at best and 1.0 when the second goroutine gains nothing.
func BenchmarkReadPathParallel(b *testing.B) {
	const rows = 8192
	db, tl := scalingDB(b, Options{})
	tbl, err := db.CreateTable("rows", "data")
	if err != nil {
		b.Fatal(err)
	}
	idx, err := db.CreateIndex("rows_pk", "data")
	if err != nil {
		b.Fatal(err)
	}
	w := tl.NewWorker()
	row := make([]byte, 100)
	for k := uint64(1); k <= rows; {
		tx := mustBegin(db, w)
		for end := k + 256; k < end; k++ {
			binary.LittleEndian.PutUint64(row, k)
			rid, err := tbl.Insert(tx, row)
			if err == nil {
				err = idx.Insert(w, k, rid)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if s, _ := db.Stats(); s.Pool.Evictions != 0 {
		b.Fatalf("%d evictions while loading: the table does not fit the pool", s.Pool.Evictions)
	}

	var seeds atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := tl.NewWorker()
		x := seeds.Add(1) * 0x9E3779B97F4A7C15
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407
			key := 1 + (x>>33)%rows
			rid, ok, err := idx.Lookup(w, key)
			if err != nil || !ok {
				b.Errorf("lookup %d: found %v, %v", key, ok, err)
				return
			}
			got, err := tbl.Read(w, rid)
			if err != nil || binary.LittleEndian.Uint64(got) != key {
				b.Errorf("read %d at %v: %v", key, rid, err)
				return
			}
		}
	})
}

// BenchmarkIndexLookupParallel is the index half of the read path alone:
// OLC Lookups of random keys in one shared, resident 8192-key tree under
// b.RunParallel, one sim.Worker per goroutine. Every lookup passes the
// same root, so its ratio in `make scaling` is what the two goroutines
// pay for sharing the tree's upper levels.
func BenchmarkIndexLookupParallel(b *testing.B) {
	const keys = 8192
	db, tl := scalingDB(b, Options{})
	idx, err := db.CreateIndex("keys", "data")
	if err != nil {
		b.Fatal(err)
	}
	w := tl.NewWorker()
	for k := uint64(1); k <= keys; k++ {
		if err := idx.Insert(w, k, core.RID{Page: core.PageID(k)}); err != nil {
			b.Fatal(err)
		}
	}

	var seeds atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := tl.NewWorker()
		x := seeds.Add(1) * 0x9E3779B97F4A7C15
		for pb.Next() {
			x = x*6364136223846793005 + 1442695040888963407
			key := 1 + (x>>33)%keys
			if rid, ok, err := idx.Lookup(w, key); err != nil || !ok || rid.Page != core.PageID(key) {
				b.Errorf("lookup %d: %v, found %v, %v", key, rid, ok, err)
				return
			}
		}
	})
}

// BenchmarkCommitPathParallel is the write path of an embedded TPC-B
// transaction without its reads — Begin, three AddField, Commit — under
// b.RunParallel, one sim.Worker per goroutine. Goroutine g updates only
// rows on the pages whose id is g modulo parts, all resident in the pool,
// so two goroutines share no row, page or frame latch: what they do share
// is the lock table, the active-transaction table and the log. The log
// has the flash workloads' capacity and reclaim threshold, so a long run
// flushes and checkpoints instead of growing. `make scaling` prints it
// beside BenchmarkReadPathParallel.
func BenchmarkCommitPathParallel(b *testing.B) {
	const rows, parts = 8192, 16
	db, tl := scalingDB(b, Options{DirtyThreshold: 0.125, LogCapacity: 16 << 20, LogReclaimThreshold: 0.35})
	tbl, err := db.CreateTable("rows", "data")
	if err != nil {
		b.Fatal(err)
	}
	w := tl.NewWorker()
	var own [parts][]core.RID
	row := make([]byte, 100)
	for k := 0; k < rows; {
		tx := mustBegin(db, w)
		for end := k + 256; k < end; k++ {
			rid, err := tbl.Insert(tx, row)
			if err != nil {
				b.Fatal(err)
			}
			own[rid.Page%parts] = append(own[rid.Page%parts], rid)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}

	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := next.Add(1) - 1
		rids := own[g%parts]
		w := tl.NewWorker()
		x := (g + 1) * 0x9E3779B97F4A7C15
		for pb.Next() {
			tx, err := db.Begin(w)
			if err != nil {
				b.Error(err)
				return
			}
			for range 3 {
				x = x*6364136223846793005 + 1442695040888963407
				if err = tbl.AddField(tx, rids[(x>>33)%uint64(len(rids))], 0, 1); err != nil {
					break
				}
			}
			if errors.Is(err, ErrLockConflict) {
				// More goroutines than parts: two of them share rows.
				err = tx.Abort()
			} else if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
