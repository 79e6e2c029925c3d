package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// ScanMode selects how the HTAP driver's analytical scans read.
type ScanMode int

const (
	// ScanModeLocking reads every tuple under the no-wait tuple lock:
	// the pre-MVCC baseline, where a long scan races every writer and
	// one busy tuple aborts the whole read.
	ScanModeLocking ScanMode = iota
	// ScanModeSnapshot reads through an MVCC snapshot transaction:
	// no locks, no aborts, writers undisturbed.
	ScanModeSnapshot
)

// String names the mode for results and tables.
func (m ScanMode) String() string {
	switch m {
	case ScanModeLocking:
		return "locking"
	case ScanModeSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("ScanMode(%d)", int(m))
}

// HTAP is the hybrid workload of the concurrent snapshot-vs-writer
// audit (TestHTAPSnapshotConsistency and its siblings): TPC-B
// Account_Update writers with an analytical full-table balance scan
// mixed in (one scan per ScanEvery operations per terminal, drawn
// probabilistically). The scan totals the account, teller and branch
// balances and checks TPC-B's invariant — every committed transaction
// moves all three sums by the same delta — so a completed scan is also
// a consistency audit:
//
//   - locking mode: tuples are read under no-wait locks held to the
//     scan's commit, so a completed scan saw a frozen state (any writer
//     committing mid-scan could only touch tuples the scan had not yet
//     reached, and the scan visits accounts before tellers before
//     branches — the same order writers lock). A busy tuple aborts the
//     scan with ErrLockConflict: the read-path abort the audit
//     counts.
//   - snapshot mode: tuples resolve through the version store at the
//     pinned snapshot LSN, which is a committed prefix of history, so
//     the invariant must hold exactly; the scan holds no locks and
//     cannot abort.
type HTAP struct {
	*TPCB

	Mode ScanMode
	// ScanEvery is the expected number of operations per scan per
	// terminal (default 50).
	ScanEvery int

	accountRIDs []core.RID
	a0, t0, b0  uint64 // balance sums right after Load

	// ScansRun counts completed (committed) balance scans.
	ScansRun atomic.Uint64
}

// NewHTAP wraps a TPC-B driver; Load must be called before RunOne.
func NewHTAP(db *engine.DB, region string, branches, accountsPerBranch int) *HTAP {
	return &HTAP{
		TPCB:      NewTPCB(db, region, branches, accountsPerBranch),
		ScanEvery: 50,
	}
}

// Name implements Workload.
func (h *HTAP) Name() string {
	return fmt.Sprintf("HTAP(%s scans)", h.Mode)
}

// Load populates TPC-B and records the tuple population and the initial
// balance sums the scans verify against.
func (h *HTAP) Load(w *sim.Worker) error {
	if err := h.TPCB.Load(w); err != nil {
		return err
	}
	h.accountRIDs = h.accountRIDs[:0]
	h.a0, h.t0, h.b0 = 0, 0, 0
	if err := h.account.Scan(w, func(rid core.RID, tup []byte) bool {
		h.accountRIDs = append(h.accountRIDs, rid)
		h.a0 += h.schAcct.GetUint(tup, 2)
		return true
	}); err != nil {
		return err
	}
	if err := h.teller.Scan(w, func(_ core.RID, tup []byte) bool {
		h.t0 += h.schCtl.GetUint(tup, 2)
		return true
	}); err != nil {
		return err
	}
	return h.branch.Scan(w, func(_ core.RID, tup []byte) bool {
		h.b0 += h.schCtl.GetUint(tup, 2)
		return true
	})
}

// RunOne implements Workload: mostly Account_Update, with a BalanceScan
// every ~ScanEvery operations.
func (h *HTAP) RunOne(w *sim.Worker, rng *rand.Rand) (string, error) {
	every := h.ScanEvery
	if every <= 0 {
		every = 50
	}
	if rng.Intn(every) == 0 {
		return "BalanceScan", h.runScan(w)
	}
	return h.TPCB.RunOne(w, rng)
}

// runScan executes one full balance scan in the configured mode and
// checks the TPC-B sum invariant.
func (h *HTAP) runScan(w *sim.Worker) error {
	var aSum, tSum, bSum uint64
	switch h.Mode {
	case ScanModeLocking:
		tx, err := h.DB.Begin(w)
		if err != nil {
			return err
		}
		// Accounts, then tellers, then branches — the order writers
		// lock, so a completed scan is a consistent cut (see type doc).
		for _, rid := range h.accountRIDs {
			tup, err := h.account.ReadLocked(tx, rid)
			if err != nil {
				tx.Abort()
				return err
			}
			aSum += h.schAcct.GetUint(tup, 2)
		}
		for _, rid := range h.tellerRIDs {
			tup, err := h.teller.ReadLocked(tx, rid)
			if err != nil {
				tx.Abort()
				return err
			}
			tSum += h.schCtl.GetUint(tup, 2)
		}
		for _, rid := range h.branchRIDs {
			tup, err := h.branch.ReadLocked(tx, rid)
			if err != nil {
				tx.Abort()
				return err
			}
			bSum += h.schCtl.GetUint(tup, 2)
		}
		if err := h.checkInvariant(aSum, tSum, bSum); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	case ScanModeSnapshot:
		tx, err := h.DB.BeginSnapshot(w)
		if err != nil {
			return err
		}
		snap := tx.SnapshotLSN()
		for _, s := range []struct {
			tbl *engine.Table
			sch *engine.Schema
			sum *uint64
		}{
			{h.account, h.schAcct, &aSum},
			{h.teller, h.schCtl, &tSum},
			{h.branch, h.schCtl, &bSum},
		} {
			sch, sum := s.sch, s.sum
			if err := s.tbl.ScanSnapshot(tx, core.RID{}, nil, func(_ core.RID, tup []byte) bool {
				*sum += sch.GetUint(tup, 2)
				return true
			}); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := h.checkInvariant(aSum, tSum, bSum); err != nil {
			tx.Abort()
			return fmt.Errorf("at snapshot LSN %d: %w", snap, err)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("htap: unknown scan mode %v", h.Mode)
	}
	h.ScansRun.Add(1)
	return nil
}

// checkInvariant verifies TPC-B's balance-sum invariant: the three
// tables have moved by the same aggregate delta since Load.
func (h *HTAP) checkInvariant(aSum, tSum, bSum uint64) error {
	da, dt, dbr := aSum-h.a0, tSum-h.t0, bSum-h.b0
	if da != dt || dt != dbr {
		return fmt.Errorf(
			"htap: balance invariant violated: Δaccounts=%d Δtellers=%d Δbranches=%d",
			da, dt, dbr)
	}
	return nil
}

// newHTAPDB is the MVCC-enabled variant of the concurrent-terminal rig.
func newHTAPDB(tb testing.TB, frames, poolShards int) (*engine.DB, *sim.Timeline) {
	tb.Helper()
	g := flash.Geometry{
		Chips: 16, BlocksPerChip: 64, PagesPerBlock: 32,
		PageSize: 1024, OOBSize: 64, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		tb.Fatal(err)
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "main", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4),
		BlocksPerChip: 64, OverProvision: 0.15,
	}); err != nil {
		tb.Fatal(err)
	}
	db, err := engine.New(dev, engine.Options{
		PageSize: 1024, BufferFrames: frames, Timeline: tl,
		LogCapacity: 1 << 20, LogReclaimThreshold: 0.4,
		PoolShards: poolShards, MVCC: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db, tl
}

// runHTAP loads the driver and runs it over parallel terminals.
func runHTAP(t *testing.T, h *HTAP, tl *sim.Timeline, workers, total int) parallelResults {
	t.Helper()
	loader := tl.NewWorker()
	if err := h.Load(loader); err != nil {
		t.Fatal(err)
	}
	terminals := make([]*sim.Worker, workers)
	for i := range terminals {
		terminals[i] = tl.NewWorker()
		terminals[i].SetNow(loader.Now())
	}
	res, err := RunParallel(h, terminals, total, 42)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHTAPSnapshotConsistency is the MVCC consistency audit, run under
// -race by the tier-1 suite: full-table snapshot scans race Zipfian
// TPC-B writers on real concurrent terminals, and every scan checks the
// balance-sum invariant frozen at its snapshot LSN (a violation is a
// terminal error, failing the run). Snapshot scans must never abort.
func TestHTAPSnapshotConsistency(t *testing.T) {
	db, tl := newHTAPDB(t, 1024, 8)
	defer db.Close()
	h := NewHTAP(db, "main", 4, 250)
	h.Mode = ScanModeSnapshot
	h.ScanEvery = 20
	h.Zipfian = true

	res := runHTAP(t, h, tl, 8, 1200)
	if res.Transactions == 0 {
		t.Fatal("no transactions committed")
	}
	if h.ScansRun.Load() == 0 {
		t.Fatal("no balance scan completed; the audit never ran")
	}
	if n := res.AbortedPerType["BalanceScan"]; n != 0 {
		t.Fatalf("%d snapshot scans aborted; snapshot reads must never abort", n)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.MVCC.Enabled || st.MVCC.SnapshotsStarted == 0 || st.MVCC.SnapshotScans == 0 {
		t.Fatalf("MVCC counters not advancing: %+v", st.MVCC)
	}
	// The store must not leak pinned snapshots after the run.
	if st.MVCC.SnapshotsActive != 0 {
		t.Fatalf("%d snapshots still active after run", st.MVCC.SnapshotsActive)
	}
}

// TestHTAPLockingScanAudit runs the same audit with locking scans: a
// scan that completes held every tuple lock at once, so its sums form a
// consistent cut and the invariant must hold there too; scans that lose
// the no-wait race abort and are counted per type, never fatal.
func TestHTAPLockingScanAudit(t *testing.T) {
	db, tl := newHTAPDB(t, 1024, 8)
	defer db.Close()
	h := NewHTAP(db, "main", 4, 250)
	h.Mode = ScanModeLocking
	h.ScanEvery = 20
	h.Zipfian = true

	res := runHTAP(t, h, tl, 8, 1200)
	if res.Transactions == 0 {
		t.Fatal("no transactions committed")
	}
	scans := h.ScansRun.Load() + res.AbortedPerType["BalanceScan"]
	if scans == 0 {
		t.Fatal("no balance scan attempted")
	}
	if res.Transactions+res.Aborted != 1200 {
		t.Fatalf("committed %d + aborted %d != 1200", res.Transactions, res.Aborted)
	}
}

// TestHTAPSequentialInvariant: single-terminal deterministic run in both
// scan modes — no concurrency, so every scan must complete and verify.
func TestHTAPSequentialInvariant(t *testing.T) {
	for _, mode := range []ScanMode{ScanModeLocking, ScanModeSnapshot} {
		t.Run(mode.String(), func(t *testing.T) {
			db, tl := newHTAPDB(t, 512, 0)
			defer db.Close()
			h := NewHTAP(db, "main", 2, 100)
			h.Mode = mode
			h.ScanEvery = 10
			loader := tl.NewWorker()
			if err := h.Load(loader); err != nil {
				t.Fatal(err)
			}
			w := tl.NewWorker()
			w.SetNow(loader.Now())
			res, err := Run(h, []*sim.Worker{w}, 200, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Transactions != 200 {
				t.Fatalf("%d of 200 transactions in a single-terminal run", res.Transactions)
			}
			if h.ScansRun.Load() == 0 {
				t.Fatal("no balance scan ran")
			}
		})
	}
}
