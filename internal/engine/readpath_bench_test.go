package engine

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// BenchmarkReadPathParallel is the embedded read path of a YCSB point
// read — an OLC index Lookup and the Table.Read of the row it names, every
// page resident in the buffer pool — under b.RunParallel, one sim.Worker
// per goroutine. `make scaling` runs it at -cpu 1,2 and prints both ns/op
// and their ratio: two goroutines that wrote no cache line in common
// would take half the wall time per operation of one, so the ratio is
// 0.5 at best and 1.0 when the second goroutine gains nothing.
func BenchmarkReadPathParallel(b *testing.B) {
	const rows = 8192
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
	db, err := New(dev, Options{
		PageSize: g.PageSize, BufferFrames: 1024, PoolShards: 8,
		IndexKind: IndexOLC, Timeline: tl,
	})
	if err != nil {
		b.Fatal(err)
	}
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
