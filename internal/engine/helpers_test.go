package engine

import (
	"testing"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// mustBegin starts a transaction on a database the test knows is open,
// panicking otherwise. It is safe in worker goroutines where t.Fatal is
// not (the panic fails the test either way).
func mustBegin(db *DB, w *sim.Worker) *Tx {
	tx, err := db.Begin(w)
	if err != nil {
		panic(err)
	}
	return tx
}

// rigGeometry is the small SLC geometry the lifecycle tests use.
func rigGeometry() flash.Geometry {
	return flash.Geometry{
		Chips: 4, BlocksPerChip: 64, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 32, Cell: flash.SLC,
	}
}

// newRigWithOptions builds a two-region device and opens a DB over it
// with caller-chosen engine options.
func newRigWithOptions(t testing.TB, g flash.Geometry, opts Options) *DB {
	t.Helper()
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := noftl.Open(arr)
	for _, name := range []string{"r1", "r2"} {
		if _, err := dev.CreateRegion(noftl.RegionConfig{
			Name: name, Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3),
			BlocksPerChip: 32, OverProvision: 0.2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	db, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// crash cuts the power and restarts db, charging the restart to no
// worker: SimulateCrash, then Recover.
func crash(db *DB) (RecoveryReport, error) {
	if err := db.SimulateCrash(); err != nil {
		return RecoveryReport{}, err
	}
	return db.Recover(nil)
}

// checkpoint takes a fuzzy checkpoint and truncates the log, as the log
// reclaim of a committer does.
func checkpoint(db *DB) error {
	defer db.rlockState(nil).RUnlock()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointLocked(nil)
}
