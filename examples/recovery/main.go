// Recovery: IPA leaves crash recovery untouched (paper Sec. 6.2).
//
// A committed transaction's small update is flushed to flash as a
// delta-record appended to the original physical page; an uncommitted
// transaction's update is also stolen to flash the same way. Then the
// power is cut (pool, transaction table, NoFTL mapping, unforced log
// tail lost). The restart scans flash for the mapping, then ARIES —
// analysis, LSN-guarded redo, undo with CLRs — runs over pages rebuilt
// from flash *plus their delta-records*: the protocol needs no changes.
//
// Run: go run ./examples/recovery
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
	db, tl, err := engine.Open(engine.Spec{
		Geometry: flash.Geometry{Chips: 2, BlocksPerChip: 64, PagesPerBlock: 64, PageSize: 4096, Cell: flash.SLC},
		Regions:  []noftl.RegionConfig{{Name: "data", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4)}},
		Options:  engine.Options{BufferFrames: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := db.CreateTable("ledger", "data")
	if err != nil {
		log.Fatal(err)
	}
	schema, _ := engine.NewSchema(8, 8)
	w := tl.NewWorker()

	// Committed base state: two rows, flushed out-of-place.
	tx := begin(db, w)
	row := schema.New()
	schema.SetUint(row, 0, 1)
	schema.SetUint(row, 1, 100)
	ridA, _ := tbl.Insert(tx, row)
	schema.SetUint(row, 0, 2)
	schema.SetUint(row, 1, 200)
	ridB, _ := tbl.Insert(tx, row)
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	db.FlushAll(w)
	fmt.Println("base state on flash: A=100, B=200")

	// Committed small update → delta-record on flash.
	tx = begin(db, w)
	cur, _ := tbl.Read(w, ridA)
	schema.AddUint(cur, 1, 11)
	tbl.Update(tx, ridA, cur)
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	db.FlushAll(w)

	// Uncommitted update, stolen to flash as another delta-record.
	loser := begin(db, w)
	cur, _ = tbl.Read(w, ridB)
	schema.SetUint(cur, 1, 999)
	tbl.Update(loser, ridB, cur)
	db.FlushAll(w)

	rs := stats(db).Regions["data"]
	fmt.Printf("before crash: %d out-of-place writes, %d in-place appends on flash\n",
		rs.OutOfPlaceWrites, rs.DeltaWrites)
	fmt.Println("committed: A += 11 (as delta-record); uncommitted: B = 999 (stolen, as delta-record)")

	// CRASH.
	if err := db.SimulateCrash(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n*** power cut: buffer pool, transaction table, NoFTL mapping and unforced log tail lost ***")

	rep, err := db.Recover(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restart: %d pages mapped from flash; %d records analysed, %d ops redone, %d skipped (LSN guard), %d losers undone\n",
		rep.MappedPages, rep.AnalyzedRecords, rep.RedoneOps, rep.SkippedOps, rep.UndoneTxs)

	a, _ := tbl.Read(w, ridA)
	b, _ := tbl.Read(w, ridB)
	fmt.Printf("\nafter recovery: A=%d (want 111), B=%d (want 200)\n",
		schema.GetUint(a, 1), schema.GetUint(b, 1))
	if schema.GetUint(a, 1) != 111 || schema.GetUint(b, 1) != 200 || rep.MappedPages == 0 || rep.UndoneTxs != 1 {
		log.Fatal("recovery produced wrong state!")
	}
	fmt.Println("OK — committed work survived, the loser was rolled back,")
	fmt.Println("and redo/undo ran over pages rebuilt from flash + delta-records.")
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
