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

// This file is the MVCC snapshot-read evaluation: TPC-B writers with a
// full-table analytical balance scan mixed in, run with scans disabled
// (the writer baseline), with locking reads (the pre-MVCC no-wait path,
// where a long scan races every writer and one busy tuple aborts the
// whole read) and with MVCC snapshot reads (lock-free, abort-free),
// under uniform and Zipfian account skew at 16 concurrent terminals.
// The two headline numbers: read-path aborts retired by snapshots, and
// writer latency under concurrent scans staying at the scan-free
// baseline.

// HTAPRow is one (distribution, scan mode) cell at 16 workers.
type HTAPRow struct {
	Dist    string // uniform | zipfian
	Scans   string // none | locking | snapshot
	Workers int
	Tx      int // requested operations (commits + aborts)

	Committed uint64
	// Writer latency is simulated time over committed Account_Update
	// transactions.
	WriterNsPerOp float64
	WriterP99Ns   float64
	// WriterAborts counts Account_Update transactions that lost the
	// no-wait lock race; ScanAborts counts BalanceScan read transactions
	// that did (the read-path abort class MVCC retires).
	WriterAborts uint64
	ScanAborts   uint64
	ScansOK      uint64
	ScanNsPerOp  float64

	// Version-store counters after the run (MVCC is enabled for every
	// cell; only snapshot scans populate the store with readers).
	SnapshotScans  uint64
	VersionsPruned uint64
	VersionsLive   int64
}

// HTAPSummary states the acceptance headlines, computed per
// distribution from the matrix rows.
type HTAPSummary struct {
	Dist string
	// ScanAbortReductionPct is the drop in read-path aborts going from
	// locking to snapshot scans (100 = all retired).
	ScanAbortReductionPct float64
	// WriterP99VsBaselinePct is snapshot-mode writer p99 relative to the
	// scan-free baseline (0 = identical, positive = slower).
	WriterP99VsBaselinePct float64
}

// htapDB builds the 16-chip concurrent stack with MVCC enabled.
func htapDB() (*engine.DB, *sim.Timeline, error) {
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
		PageSize: 1024, BufferFrames: 2048, Timeline: tl,
		LogCapacity: 1 << 20, LogReclaimThreshold: 0.4,
		PoolShards: 8, MVCC: true,
	})
	if err != nil {
		return nil, nil, err
	}
	return db, tl, nil
}

// RunHTAPBench executes the matrix: {uniform, zipfian} × {none,
// locking, snapshot} scans at 16 workers.
func RunHTAPBench(p Params) ([]HTAPRow, error) {
	// Lock conflicts are real-time races between terminal goroutines:
	// the volume has to be large enough that every terminal's quota far
	// exceeds a scheduler slice, or short runs finish with terminals
	// never interleaving mid-transaction (especially at GOMAXPROCS=1)
	// and the no-wait path shows no contention at all.
	const workers = 16
	total := p.tx(160_000)
	var rows []HTAPRow
	for _, dist := range []struct {
		name string
		zipf bool
	}{{"uniform", false}, {"zipfian", true}} {
		for _, mode := range []workload.ScanMode{
			workload.ScanModeNone, workload.ScanModeLocking, workload.ScanModeSnapshot,
		} {
			db, tl, err := htapDB()
			if err != nil {
				return nil, err
			}
			h := workload.NewHTAP(db, "main", 4, 500)
			h.Mode = mode
			h.ScanEvery = 200
			h.Zipfian = dist.zipf
			loader := tl.NewWorker()
			if err := h.Load(loader); err != nil {
				return nil, fmt.Errorf("htap %s/%s: load: %w", dist.name, mode, err)
			}
			terminals := make([]*sim.Worker, workers)
			for i := range terminals {
				terminals[i] = tl.NewWorker()
				terminals[i].SetNow(loader.Now())
			}
			res, err := workload.RunParallel(h, terminals, total, 42)
			if err != nil {
				return nil, fmt.Errorf("htap %s/%s: %w", dist.name, mode, err)
			}
			st, err := db.Stats()
			if err != nil {
				return nil, err
			}
			row := HTAPRow{
				Dist: dist.name, Scans: mode.String(),
				Workers: workers, Tx: total,
				Committed:      res.Transactions,
				WriterAborts:   res.AbortedPerType["Account_Update"],
				ScanAborts:     res.AbortedPerType["BalanceScan"],
				ScansOK:        h.ScansRun.Load(),
				SnapshotScans:  st.MVCC.SnapshotScans,
				VersionsPruned: st.MVCC.VersionsPruned,
				VersionsLive:   st.MVCC.VersionsLive,
			}
			if l := res.PerType["Account_Update"]; l != nil {
				row.WriterNsPerOp = float64(l.Mean().Nanoseconds())
				row.WriterP99Ns = float64(l.Quantile(0.99).Nanoseconds())
			}
			if l := res.PerType["BalanceScan"]; l != nil {
				row.ScanNsPerOp = float64(l.Mean().Nanoseconds())
			}
			rows = append(rows, row)
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// HTAPSummaries derives the per-distribution acceptance headlines.
func HTAPSummaries(rows []HTAPRow) []HTAPSummary {
	byKey := map[string]HTAPRow{}
	for _, r := range rows {
		byKey[r.Dist+"/"+r.Scans] = r
	}
	var out []HTAPSummary
	for _, dist := range []string{"uniform", "zipfian"} {
		base, lock, snap := byKey[dist+"/none"], byKey[dist+"/locking"], byKey[dist+"/snapshot"]
		s := HTAPSummary{Dist: dist}
		if lock.ScanAborts > 0 {
			s.ScanAbortReductionPct = 100 * (1 - float64(snap.ScanAborts)/float64(lock.ScanAborts))
		} else if snap.ScanAborts == 0 {
			s.ScanAbortReductionPct = 100
		}
		if base.WriterP99Ns > 0 {
			s.WriterP99VsBaselinePct = 100 * (snap.WriterP99Ns - base.WriterP99Ns) / base.WriterP99Ns
		}
		out = append(out, s)
	}
	return out
}

// HTAP renders the matrix as a report table (experiment id "htap").
func HTAP(p Params) (*Table, error) {
	rows, err := RunHTAPBench(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "htap",
		Title:  "HTAP: TPC-B writers + full-table balance scans, locking vs MVCC snapshot reads (16 workers)",
		Header: []string{"dist", "scans", "committed", "writer ns/op", "writer p99", "writer aborts", "scan aborts", "scans ok"},
	}
	for _, r := range rows {
		t.AddRow(r.Dist, r.Scans,
			fmt.Sprintf("%d", r.Committed),
			fmt.Sprintf("%.0f", r.WriterNsPerOp),
			fmt.Sprintf("%.0f", r.WriterP99Ns),
			fmt.Sprintf("%d", r.WriterAborts),
			fmt.Sprintf("%d", r.ScanAborts),
			fmt.Sprintf("%d", r.ScansOK))
	}
	for _, s := range HTAPSummaries(rows) {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: snapshot scans retire %.0f%% of read-path aborts; writer p99 %+.1f%% vs scan-free baseline",
			s.Dist, s.ScanAbortReductionPct, s.WriterP99VsBaselinePct))
	}
	t.Notes = append(t.Notes,
		"every completed scan verifies the TPC-B balance-sum invariant at its read point (snapshot LSN for MVCC)",
		"ns/op is simulated time over committed transactions; aborts are no-wait lock-race losses")
	return t, nil
}
