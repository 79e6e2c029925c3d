// Quickstart: the smallest end-to-end use of the IPA stack.
//
// It builds a simulated flash device, creates a NoFTL region with a
// [2×3] In-Place Append scheme, stores a table in it, and shows that a
// small update is persisted as a delta-record appended to the *same*
// physical flash page — no out-of-place write, no erase.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

func main() {
	// 1. A small SLC flash array: 4 chips × 64 blocks × 64 pages × 4KB.
	// 2. NoFTL device with one region spanning it: IPA enabled, [2×3]
	//    scheme (2 delta-records per page, 3 changed body bytes each —
	//    the paper's TPC-C configuration, 2.2% space overhead).
	// 3. Storage engine with WAL, buffer pool and ECC.
	scheme := core.NewScheme(2, 3)
	db, tl, err := engine.Open(engine.Spec{
		Geometry: flash.Geometry{Chips: 4, BlocksPerChip: 64, PagesPerBlock: 64, PageSize: 4096, Cell: flash.SLC},
		Regions:  []noftl.RegionConfig{{Name: "hot", Mode: noftl.ModeSLC, Scheme: scheme}},
		Options:  engine.Options{BufferFrames: 128, UseECC: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region 'hot': scheme %v, delta area %dB/page (%.1f%% overhead)\n",
		scheme, scheme.AreaSize(), 100*scheme.SpaceOverhead(4096))
	tbl, err := db.CreateTable("accounts", "hot")
	if err != nil {
		log.Fatal(err)
	}

	// 4. Insert a row: id(8) balance(8) name(32).
	schema, _ := engine.NewSchema(8, 8, 32)
	w := tl.NewWorker()
	tx := begin(db, w)
	row := schema.New()
	schema.SetUint(row, 0, 1)
	schema.SetUint(row, 1, 1000)
	schema.SetBytes(row, 2, []byte("alice"))
	rid, err := tbl.Insert(tx, row)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := db.FlushAll(w); err != nil { // first write: out-of-place
		log.Fatal(err)
	}

	// 5. A small update: balance += 42 changes one byte of net data.
	tx = begin(db, w)
	cur, _ := tbl.Read(w, rid)
	schema.AddUint(cur, 1, 42)
	if err := tbl.Update(tx, rid, cur); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := db.FlushAll(w); err != nil { // this one is an In-Place Append
		log.Fatal(err)
	}

	// 6. Show what happened at each layer — one engine.Stats snapshot
	//    covers the region, the store and the raw flash array.
	es := stats(db)
	rs := es.Regions["hot"]
	fs := es.Flash
	fmt.Printf("\nafter one insert + one small update:\n")
	fmt.Printf("  out-of-place page writes : %d\n", rs.OutOfPlaceWrites)
	fmt.Printf("  in-place appends         : %d (write_delta)\n", rs.DeltaWrites)
	fmt.Printf("  flash ISPP programs      : %d of %dB each (vs %dB full page)\n",
		fs.DeltaPrograms, scheme.RecordSize(), 4096)
	fmt.Printf("  erases                   : %d\n", fs.Erases)

	// 7. Prove durability: drop the page from the buffer and re-read —
	//    the delta-record is applied on fetch.
	if err := db.Pool().Drop(rid.Page); err != nil {
		log.Fatal(err)
	}
	got, err := tbl.Read(w, rid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-fetched from flash: balance = %d (want 1042)\n", schema.GetUint(got, 1))
	if schema.GetUint(got, 1) != 1042 {
		log.Fatal("balance mismatch!")
	}
	fmt.Println("OK")
}

// begin starts a transaction, exiting on error (examples run on an open DB).
func begin(db *engine.DB, w *sim.Worker) *engine.Tx {
	tx, err := db.Begin(w)
	if err != nil {
		log.Fatal(err)
	}
	return tx
}

// stats snapshots the engine, exiting on error.
func stats(db *engine.DB) engine.Stats {
	s, err := db.Stats()
	if err != nil {
		log.Fatal(err)
	}
	return s
}
