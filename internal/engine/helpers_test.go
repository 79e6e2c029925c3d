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

// openRig opens a DB through Open, failing the test on an error.
func openRig(t testing.TB, g flash.Geometry, opts Options, regions ...noftl.RegionConfig) *DB {
	t.Helper()
	db, _, err := Open(Spec{Geometry: g, Regions: regions, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newRigWithOptions opens a DB over two [2×3] regions, r1 and r2, with
// caller-chosen engine options.
func newRigWithOptions(t testing.TB, g flash.Geometry, opts Options) *DB {
	t.Helper()
	rc := func(name string) noftl.RegionConfig {
		return noftl.RegionConfig{
			Name: name, Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3),
			BlocksPerChip: 32, OverProvision: 0.2,
		}
	}
	return openRig(t, g, opts, rc("r1"), rc("r2"))
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
