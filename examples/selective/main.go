// Selective: per-object IPA through NoFTL regions + the IPA advisor.
//
// The paper's contribution II: IPA is applied selectively to the
// database objects that benefit ("solely for the STOCK table in TPC-C"),
// with no DBA overhead beyond placing tables into regions — and the IPA
// advisor picks the [N×M] parameters from a workload profile.
//
// This example creates three regions on one MLC device:
//
//	rgHot  — pSLC,    [2×4]: the write-hot tables
//	rgWarm — odd-MLC, [2×3]: moderately updated tables
//	rgCold — IPA off:         read-mostly / append-only tables
//
// runs a mixed workload, prints per-region flash behaviour, and then asks
// the advisor what scheme the observed update profile actually warrants.
//
// Run: go run ./examples/selective
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ipa/internal/advisor"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

func main() {
	g := flash.Geometry{
		Chips: 4, BlocksPerChip: 64, PagesPerBlock: 64,
		PageSize: 4096, OOBSize: 256, Cell: flash.MLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.MLCTiming(), StrictProgramOrder: true, MaxAppends: 4,
	}, tl)
	if err != nil {
		log.Fatal(err)
	}
	dev := noftl.Open(arr)
	// The CREATE REGION statements of the paper's Figure 3, as Go calls.
	for _, rc := range []noftl.RegionConfig{
		{Name: "rgHot", Mode: noftl.ModePSLC, Scheme: core.NewScheme(2, 4), BlocksPerChip: 24},
		{Name: "rgWarm", Mode: noftl.ModeOddMLC, Scheme: core.NewScheme(2, 3), BlocksPerChip: 24},
		{Name: "rgCold", Mode: noftl.ModeNone, BlocksPerChip: 16},
	} {
		if _, err := dev.CreateRegion(rc); err != nil {
			log.Fatal(err)
		}
	}
	db, err := engine.New(dev, engine.Options{PageSize: 4096, BufferFrames: 64, Timeline: tl})
	if err != nil {
		log.Fatal(err)
	}
	stock, _ := db.CreateTable("stock", "rgHot")        // tiny numeric updates, hot
	customer, _ := db.CreateTable("customer", "rgWarm") // balance updates, warm
	history, _ := db.CreateTable("history", "rgCold")   // append-only

	sch, _ := engine.NewSchema(8, 8, 64)
	w := tl.NewWorker()
	rng := rand.New(rand.NewSource(7))

	// Load.
	var stockRIDs, custRIDs []core.RID
	load := func(tbl *engine.Table, n int, out *[]core.RID) {
		tx := begin(db, w)
		for i := 0; i < n; i++ {
			tup := sch.New()
			sch.SetUint(tup, 0, uint64(i))
			rid, err := tbl.Insert(tx, tup)
			if err != nil {
				log.Fatal(err)
			}
			*out = append(*out, rid)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	load(stock, 800, &stockRIDs)
	load(customer, 400, &custRIDs)
	db.FlushAll(w)
	for _, r := range []string{"rgHot", "rgWarm", "rgCold"} {
		db.Store(r).Region().ResetStats()
	}

	// Mixed workload: stock gets hammered with 1-3 byte updates, customer
	// sees moderate updates, history only appends.
	fmt.Println("running 6000 mixed operations ...")
	for i := 0; i < 6000; i++ {
		tx := begin(db, w)
		switch {
		case i%10 < 7: // hot: stock quantity -= q
			rid := stockRIDs[rng.Intn(len(stockRIDs))]
			cur, err := stock.Read(w, rid)
			if err != nil {
				log.Fatal(err)
			}
			sch.AddUint(cur, 1, uint64(rng.Intn(9)+1))
			if err := stock.Update(tx, rid, cur); err != nil {
				log.Fatal(err)
			}
		case i%10 < 9: // warm: customer balance
			rid := custRIDs[rng.Intn(len(custRIDs))]
			cur, err := customer.Read(w, rid)
			if err != nil {
				log.Fatal(err)
			}
			sch.AddUint(cur, 1, uint64(rng.Intn(999)+1))
			if err := customer.Update(tx, rid, cur); err != nil {
				log.Fatal(err)
			}
		default: // cold: history append
			h := sch.New()
			sch.SetUint(h, 0, uint64(i))
			if _, err := history.Insert(tx, h); err != nil {
				log.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	db.FlushAll(w)

	fmt.Printf("\n%-8s %-8s %-8s %10s %10s %10s %8s\n",
		"region", "mode", "scheme", "oop", "appends", "gc-erases", "ipa%")
	es := stats(db)
	for _, name := range []string{"rgHot", "rgWarm", "rgCold"} {
		st := db.Store(name)
		rs := es.Regions[name]
		fmt.Printf("%-8s %-8s %-8s %10d %10d %10d %7.0f%%\n",
			name, st.Region().Mode(), st.Region().Scheme(),
			rs.OutOfPlaceWrites, rs.DeltaWrites, rs.GCErases, 100*rs.IPAFraction())
	}

	// The advisor, fed from the write-ahead log (Sec. 8.4).
	prof := db.WALProfile()
	fmt.Printf("\nIPA advisor (from %d log-profiled update samples):\n", prof.Len())
	for _, goal := range []advisor.Goal{advisor.Performance, advisor.Longevity, advisor.Space} {
		rec, err := advisor.RecommendScheme(prof, advisor.Options{Goal: goal, MaxN: 3, PageSize: 4096})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s → %-7v covers %3.0f%% per record, %.2f%% space\n",
			goal, rec.Scheme, 100*rec.CoveredFraction, 100*rec.SpaceOverhead)
	}

	// Per-table storage advice: which write-reduction scheme each table's
	// own update-size CDF warrants (ipa with appends, pdl, or ipa on [0×0]
	// — out of place — told apart by the region scheme).
	decisions, err := db.AdviseStorage(w, advisor.Options{Goal: advisor.Performance, MaxN: 3, PageSize: 4096})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-table storage advice:")
	for _, d := range decisions {
		fmt.Printf("  %-10s in %-7s → %-3v %-7v (p90 %4dB over %d samples)\n",
			d.Table, d.Region, d.Advice.Storage, d.Advice.RegionScheme(), d.Advice.P90, d.Samples)
	}
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
