package experiments

import (
	"fmt"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
	"ipa/internal/workload"
)

// This file is the index-latching comparison of the pluggable-index
// API: the same bare-index operation stream run under the coarse
// (tree-wide RW mutex) and OLC (optimistic lock coupling) B+trees,
// across worker counts and read/insert mixes. Times are simulated —
// the coarse tree pays the tree-wide latch horizon, the OLC tree runs
// horizon-free and reports its residual cost as restart and latch-wait
// counters — so the shape is deterministic and host-independent (see
// workload.RunIndexOps).

// IndexRow is one (tree, mix, workers) cell of the comparison.
type IndexRow struct {
	Tree    string
	Mix     string
	ReadPct int
	Workers int
	Ops     int
	// NsPerOp is simulated nanoseconds per operation (makespan / ops).
	NsPerOp float64
	// RestartsPerOp counts optimistic descents invalidated by a
	// concurrent structural change (OLC only; coarse never restarts).
	RestartsPerOp float64
	// LatchWaitsPerOp counts blocked latch acquisitions (OLC only).
	LatchWaitsPerOp float64
}

// indexBenchDB builds the standard concurrent stack for index runs:
// 16 SLC chips and a buffer pool big enough to keep the whole tree
// cached, so the comparison measures latching rather than the append
// chip (a cold pool serialises both trees on the same flash programs).
func indexBenchDB(frames int) (*engine.DB, *sim.Timeline, error) {
	g := flash.Geometry{
		Chips: 16, BlocksPerChip: 64, PagesPerBlock: 32,
		PageSize: 1024, OOBSize: 64, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		return nil, nil, err
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "main", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4),
		BlocksPerChip: 64, OverProvision: 0.15,
	}); err != nil {
		return nil, nil, err
	}
	db, err := engine.New(dev, engine.Options{
		PageSize: 1024, BufferFrames: frames, Timeline: tl,
		LogCapacity: 1 << 20, LogReclaimThreshold: 0.4,
		PoolShards: 8,
	})
	if err != nil {
		return nil, nil, err
	}
	return db, tl, nil
}

// RunIndexBench executes the matrix: {coarse, olc} × {read95, mixed50}
// × {1, 4, 16} workers.
func RunIndexBench(p Params) ([]IndexRow, error) {
	preload, ops := 20000, 20000
	if p.Quick {
		preload, ops = 5000, 5000
	}
	var rows []IndexRow
	for _, kind := range []engine.IndexKind{engine.IndexCoarse, engine.IndexOLC} {
		for _, mix := range []struct {
			name    string
			readPct int
		}{{"read95", 95}, {"mixed50", 50}} {
			for _, workers := range []int{1, 4, 16} {
				db, tl, err := indexBenchDB(2048)
				if err != nil {
					return nil, err
				}
				res, err := workload.RunIndexOps(db, tl, "main", workload.IndexOpsConfig{
					Kind: kind, ReadPct: mix.readPct, Workers: workers,
					Preload: preload, Ops: ops, Seed: 3,
				})
				if err != nil {
					return nil, fmt.Errorf("index %s/%s/w%d: %w", kind, mix.name, workers, err)
				}
				n := float64(ops)
				rows = append(rows, IndexRow{
					Tree: kind.String(), Mix: mix.name, ReadPct: mix.readPct,
					Workers: workers, Ops: ops,
					NsPerOp:         float64(res.SimTime) / n,
					RestartsPerOp:   float64(res.After.Restarts-res.Before.Restarts) / n,
					LatchWaitsPerOp: float64(res.After.LatchWaits-res.Before.LatchWaits) / n,
				})
			}
		}
	}
	return rows, nil
}

// Index renders the comparison as a report table (experiment id
// "index").
func Index(p Params) (*Table, error) {
	rows, err := RunIndexBench(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "index",
		Title:  "Index latching: coarse RW mutex vs optimistic lock coupling",
		Header: []string{"tree", "mix", "workers", "ns/op", "restarts/op", "latchwaits/op"},
	}
	for _, r := range rows {
		t.AddRow(r.Tree, r.Mix,
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%.1f", r.NsPerOp),
			fmt.Sprintf("%.4f", r.RestartsPerOp),
			fmt.Sprintf("%.4f", r.LatchWaitsPerOp))
	}
	t.Notes = append(t.Notes,
		"ns/op is simulated time (makespan/ops): coarse pays a tree-wide latch horizon, OLC runs horizon-free",
		"restarts/op and latchwaits/op are OLC's residual contention cost; coarse never restarts",
		"warm buffer pool: the tree is fully cached, so the latch (not the append chip) is the bottleneck")
	return t, nil
}
