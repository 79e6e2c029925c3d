package engine_test

import (
	"reflect"
	"testing"

	"ipa/internal/advisor"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

// TestAdviseStorageTPCB profiles a small TPC-B from the log and checks
// the per-table advice: one decision per table, in name order, each the
// advisor's verdict on that table's own profile — and the balance
// updates of branch and teller, a few bytes each, get in-place appends.
func TestAdviseStorageTPCB(t *testing.T) {
	db, tl, err := engine.Open(engine.Spec{
		Geometry: flash.Geometry{Chips: 2, BlocksPerChip: 64, PagesPerBlock: 16, PageSize: 1024, Cell: flash.SLC},
		Regions:  []noftl.RegionConfig{engine.CellIPA.Config("main", 64)},
		Options:  engine.Options{BufferFrames: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b := workload.NewTPCB(db, "main", 1, 200)
	w := tl.NewWorker()
	if err := b.Load(w); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(b, []*sim.Worker{w}, 300, 1); err != nil {
		t.Fatal(err)
	}

	opts := advisor.Options{Goal: advisor.Performance, MaxN: 3}
	decisions, err := db.AdviseStorage(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	for _, d := range decisions {
		tables = append(tables, d.Table)
	}
	if want := []string{"tpcb_account", "tpcb_branch", "tpcb_history", "tpcb_teller"}; !reflect.DeepEqual(tables, want) {
		t.Fatalf("advised tables %v, want %v", tables, want)
	}
	profs := db.WALTableProfiles()
	opts.PageSize = 1024 // AdviseStorage's default: the database page size
	for _, d := range decisions {
		p := profs[d.Table]
		if d.Region != "main" || d.Samples == 0 || d.Samples != p.Len() {
			t.Errorf("%s: region %q, %d samples (profile has %d)", d.Table, d.Region, d.Samples, p.Len())
		}
		want, err := advisor.RecommendStorage(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Advice, want) {
			t.Errorf("%s: advice %+v, want %+v", d.Table, d.Advice, want)
		}
		if d.Table == "tpcb_branch" || d.Table == "tpcb_teller" {
			if d.Advice.Storage != noftl.StorageIPA || d.Advice.RegionScheme().Disabled() {
				t.Errorf("%s: %v on %v, want in-place appends (p90 %d B)",
					d.Table, d.Advice.Storage, d.Advice.RegionScheme(), d.Advice.P90)
			}
		}
	}
}
