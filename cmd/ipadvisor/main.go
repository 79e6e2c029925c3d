// Command ipadvisor demonstrates the IPA advisor (paper Sec. 8.4): it
// runs a short workload, profiles the update sizes from the write-ahead
// log, and prints the recommended [N×M] scheme for each optimisation
// goal.
//
// Usage:
//
//	ipadvisor -bench tpcc -tx 2000 -maxn 3 -pagesize 4096
package main

import (
	"flag"
	"fmt"
	"os"

	"ipa/internal/advisor"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

func main() {
	bench := flag.String("bench", "tpcc", "workload to profile: tpcb | tpcc | tatp | linkbench")
	tx := flag.Int("tx", 2000, "transactions to profile")
	maxN := flag.Int("maxn", 3, "flash re-program budget (2-3 MLC, more SLC)")
	pageSize := flag.Int("pagesize", 4096, "database page size")
	flag.Parse()

	if err := run(*bench, *tx, *maxN, *pageSize); err != nil {
		fmt.Fprintf(os.Stderr, "ipadvisor: %v\n", err)
		os.Exit(1)
	}
}

func run(bench string, tx, maxN, pageSize int) error {
	g := flash.Geometry{
		Chips: 4, BlocksPerChip: 512, PagesPerBlock: 64,
		PageSize: pageSize, OOBSize: pageSize / 16, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8}, tl)
	if err != nil {
		return err
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "data", Mode: noftl.ModeSLC, Scheme: core.NewScheme(3, core.MaxM), BlocksPerChip: 512,
	}); err != nil {
		return err
	}
	db, err := engine.New(dev, engine.Options{PageSize: pageSize, BufferFrames: 4096, Timeline: tl})
	if err != nil {
		return err
	}
	var wl workload.Workload
	switch bench {
	case "tpcb":
		wl = workload.NewTPCB(db, "data", 1, 2000)
	case "tpcc":
		wl = workload.NewTPCC(db, "data", 1, 2400, 100)
	case "tatp":
		wl = workload.NewTATP(db, "data", 4000)
	case "linkbench":
		wl = workload.NewLinkBench(db, "data", 1500, 4)
	default:
		return fmt.Errorf("unknown bench %q", bench)
	}
	w := tl.NewWorker()
	fmt.Printf("loading %s ...\n", wl.Name())
	if err := wl.Load(w); err != nil {
		return err
	}
	fmt.Printf("profiling %d transactions ...\n", tx)
	if _, err := workload.Run(wl, []*sim.Worker{w}, tx, 1); err != nil {
		return err
	}
	prof := db.WALProfile()
	fmt.Printf("profile: %d per-page update samples from the DB log\n\n", prof.Len())
	for _, goal := range []advisor.Goal{advisor.Performance, advisor.Longevity, advisor.Space} {
		rec, err := advisor.RecommendScheme(prof, advisor.Options{Goal: goal, MaxN: maxN, PageSize: pageSize})
		if err != nil {
			return err
		}
		fmt.Printf("%-12s → %v  V=%d  covers %.0f%% of updates per record, space %.2f%%\n",
			goal, rec.Scheme, rec.Scheme.V, 100*rec.CoveredFraction, 100*rec.SpaceOverhead)
		fmt.Printf("             %s\n", rec.Rationale)
	}

	// Per-table storage-scheme advice: ipa with appends, pdl, or ipa on
	// [0×0] (out of place), told apart by the region scheme.
	decisions, err := db.AdviseStorage(w, advisor.Options{Goal: advisor.Performance, MaxN: maxN, PageSize: pageSize})
	if err != nil {
		return err
	}
	if len(decisions) > 0 {
		fmt.Printf("\nstorage advice (per table, from %s):\n", wl.Name())
		for _, d := range decisions {
			fmt.Printf("  %-12s %-3v %-7v (p50 %4dB, p90 %4dB, %d samples) — %s\n",
				d.Table, d.Advice.Storage, d.Advice.RegionScheme(), d.Advice.P50, d.Advice.P90, d.Samples, d.Advice.Rationale)
		}
	}
	return nil
}
