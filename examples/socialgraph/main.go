// Socialgraph: In-Place Appends on a LinkBench-style workload.
//
// Social-graph updates are larger than classic OLTP (up to ~125 gross
// bytes per page), so the paper uses [N×100] / [N×125] schemes on 8KB
// pages. This example loads a small graph, runs the mixed read/write
// operation set, and prints the update-size CDF next to the fraction of
// writes served as appends — the data behind the paper's Figure 10 and
// Table 5.
//
// Run: go run ./examples/socialgraph
package main

import (
	"fmt"
	"log"
	"strings"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

func main() {
	scheme := core.NewScheme(2, 100)
	db, tl, err := engine.Open(engine.Spec{
		Geometry: flash.Geometry{Chips: 8, BlocksPerChip: 64, PagesPerBlock: 64, PageSize: 8192, Cell: flash.SLC},
		Regions:  []noftl.RegionConfig{{Name: "graph", Mode: noftl.ModeSLC, Scheme: scheme}},
		Options:  engine.Options{BufferFrames: 64, DirtyThreshold: 0.125},
	})
	if err != nil {
		log.Fatal(err)
	}
	lb := workload.NewLinkBench(db, "graph", 1200, 4)
	w := tl.NewWorker()
	fmt.Println("loading social graph (1200 nodes, ~4800 edges) ...")
	if err := lb.Load(w); err != nil {
		log.Fatal(err)
	}
	db.Store("graph").Region().ResetStats()
	st := db.Store("graph")
	st.Stats().GrossBytes.Reset()

	fmt.Println("running 8000 LinkBench operations ...")
	if _, err := workload.Run(lb, []*sim.Worker{w}, 8000, 3); err != nil {
		log.Fatal(err)
	}
	if err := db.FlushAll(w); err != nil {
		log.Fatal(err)
	}

	es := stats(db)
	gross := es.Stores["graph"].GrossBytes
	fmt.Printf("\nupdate-size CDF (gross bytes changed per 8KB page, %d update I/Os):\n", gross.Count())
	for _, th := range []int{10, 25, 50, 100, 125, 200, 400} {
		f := gross.FractionLE(th)
		bar := strings.Repeat("#", int(f*40))
		fmt.Printf("  ≤ %4dB  %5.1f%%  %s\n", th, 100*f, bar)
	}
	rs := es.Regions["graph"]
	fmt.Printf("\nscheme %v on 8KB pages (%.1f%% space overhead):\n", scheme, 100*scheme.SpaceOverhead(8192))
	fmt.Printf("  writes served as in-place appends : %.0f%%\n", 100*rs.IPAFraction())
	fmt.Printf("  out-of-place page writes           : %d\n", rs.OutOfPlaceWrites)
	fmt.Printf("  GC erases                          : %d\n", rs.GCErases)
	fmt.Println("\n(the paper reports 28-47% of LinkBench update I/Os as appends, Table 3/Fig. 6)")
}

// stats snapshots the engine, exiting on error.
func stats(db *engine.DB) engine.Stats {
	s, err := db.Stats()
	if err != nil {
		log.Fatal(err)
	}
	return s
}
