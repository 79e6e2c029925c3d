// Banking: the paper's headline result on a TPC-B-style workload.
//
// The same bank (branches, tellers, accounts, history) runs twice on
// identical flash: once with IPA disabled ([0×0], the classic
// out-of-place SSD behaviour) and once with the [2×4] In-Place Append
// scheme. The example prints the erase counts, garbage-collection
// overhead, write amplification and throughput of both runs.
//
// Run: go run ./examples/banking
package main

import (
	"fmt"
	"log"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

type outcome struct {
	scheme     core.Scheme
	throughput float64
	erases     uint64
	migrations uint64
	epw        float64 // erases per host write
	ipaFrac    float64
	wa         float64
}

func main() {
	base := run(core.Scheme{})
	ipa := run(core.NewScheme(2, 4))

	fmt.Println("TPC-B style bank: [0×0] baseline vs [2×4] In-Place Appends")
	fmt.Println()
	fmt.Printf("%-28s %12s %12s %10s\n", "metric", "[0×0]", "[2×4]", "change")
	row := func(name string, b, i float64, format string) {
		change := "-"
		if b != 0 {
			change = fmt.Sprintf("%+.0f%%", 100*(i-b)/b)
		}
		fmt.Printf("%-28s %12s %12s %10s\n", name,
			fmt.Sprintf(format, b), fmt.Sprintf(format, i), change)
	}
	row("tx throughput [tps]", base.throughput, ipa.throughput, "%.0f")
	row("GC erases", float64(base.erases), float64(ipa.erases), "%.0f")
	row("GC page migrations", float64(base.migrations), float64(ipa.migrations), "%.0f")
	row("erases per host write", base.epw, ipa.epw, "%.4f")
	row("write amplification", base.wa, ipa.wa, "%.1f")
	fmt.Printf("%-28s %12s %12s\n", "writes served as appends",
		"0%", fmt.Sprintf("%.0f%%", 100*ipa.ipaFrac))
	fmt.Println()
	fmt.Println("(the paper reports ~2x fewer erases, 2-3x lower write amplification,")
	fmt.Println(" and up to +48% throughput for TPC-B on real hardware)")
}

func run(scheme core.Scheme) outcome {
	mode := noftl.ModeSLC
	if scheme.Disabled() {
		mode = noftl.ModeNone
	}
	db, tl, err := engine.Open(engine.Spec{
		Geometry: flash.Geometry{Chips: 8, BlocksPerChip: 12, PagesPerBlock: 64, PageSize: 4096, Cell: flash.SLC},
		Regions:  []noftl.RegionConfig{{Name: "bank", Mode: mode, Scheme: scheme, OverProvision: 0.10}},
		Options: engine.Options{
			BufferFrames: 96, LogCapacity: 1 << 22, LogReclaimThreshold: 0.35, DirtyThreshold: 0.125,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	bank := workload.NewTPCB(db, "bank", 2, 4000)
	w := tl.NewWorker()
	if err := bank.Load(w); err != nil {
		log.Fatal(err)
	}
	db.Store("bank").Region().ResetStats()
	db.Device().Array().ResetStats()

	terminals := make([]*sim.Worker, 4)
	for i := range terminals {
		terminals[i] = tl.NewWorker()
		terminals[i].SetNow(w.Now())
	}
	res, err := workload.Run(bank, terminals, 12000, 99)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.FlushAll(w); err != nil {
		log.Fatal(err)
	}
	es := stats(db)
	rs := es.Regions["bank"]
	stats := es.Stores["bank"]
	gross := float64(rs.OutOfPlaceWrites)*4096 + float64(rs.DeltaWrites)*float64(scheme.RecordSize())
	net := stats.NetBytes.Mean() * float64(stats.NetBytes.Count())
	wa := 0.0
	if net > 0 {
		wa = gross / net
	}
	return outcome{
		scheme:     scheme,
		throughput: res.Throughput,
		erases:     rs.GCErases,
		migrations: rs.GCPageMigrations,
		epw:        rs.ErasesPerHostWrite(),
		ipaFrac:    rs.IPAFraction(),
		wa:         wa,
	}
}

// stats snapshots the engine, exiting on error.
func stats(db *engine.DB) engine.Stats {
	s, err := db.Stats()
	if err != nil {
		log.Fatal(err)
	}
	return s
}
