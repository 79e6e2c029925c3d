package experiments

import (
	"fmt"

	"ipa/internal/core"
	"ipa/internal/noftl"
)

// This file is the scheme-comparison matrix of the per-region storage
// API: the same OLTP work run under plain out-of-place writes (oop, an
// IPA region on the disabled [0×0] scheme), In-Place Appends on [2×4]
// (ipa) and Page-Differential Logging (pdl), reporting
// the three costs the schemes trade against each other — transaction
// throughput, flash bytes programmed per committed transaction, and GC
// page migrations per transaction.

// SchemeRow is one (bench, storage) cell of the comparison.
type SchemeRow struct {
	Bench        string
	Storage      string
	Transactions uint64
	TxPerSec     float64
	// BytesPerTx is flash bytes programmed (pages, delta-records and PDL
	// differentials alike, as counted by the array) per committed
	// transaction.
	BytesPerTx float64
	// GCMigrationsPerTx is GC page migrations per committed transaction.
	GCMigrationsPerTx float64
	// IPAFraction is the fraction of update I/Os served as appends
	// (delta-records or PDL differentials).
	IPAFraction float64
}

var schemeMatrix = []struct {
	name    string
	storage noftl.Storage
	scheme  core.Scheme
}{
	{"oop", noftl.StorageIPA, core.Scheme{}},
	{"ipa", noftl.StorageIPA, core.NewScheme(2, 4)},
	{"pdl", noftl.StoragePDL, core.Scheme{}},
}

// RunSchemes executes the matrix: {tpcb, tatp} × {oop, ipa, pdl}.
func RunSchemes(p Params) ([]SchemeRow, error) {
	var rows []SchemeRow
	for _, bench := range []string{"tpcb", "tatp"} {
		for _, m := range schemeMatrix {
			o, err := Execute(Spec{
				Bench: bench, Storage: m.storage, Scheme: m.scheme,
				BufferPct: 0.5, Eager: true, Tx: p.tx(4000),
			})
			if err != nil {
				return nil, fmt.Errorf("schemes %s/%s: %w", bench, m.name, err)
			}
			row := SchemeRow{
				Bench:        bench,
				Storage:      m.name,
				Transactions: o.Results.Transactions,
				TxPerSec:     o.Results.Throughput,
				IPAFraction:  o.Region.IPAFraction(),
			}
			if n := float64(o.Results.Transactions); n > 0 {
				row.BytesPerTx = float64(o.Flash.BytesWritten) / n
				row.GCMigrationsPerTx = float64(o.Region.GCPageMigrations) / n
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Schemes renders the comparison as a report table (experiment id
// "schemes").
func Schemes(p Params) (*Table, error) {
	rows, err := RunSchemes(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "schemes",
		Title:  "Storage-scheme comparison: oop vs ipa vs pdl",
		Header: []string{"bench", "storage", "tx/s", "bytes/tx", "GC migr/tx", "append%"},
	}
	for _, r := range rows {
		t.AddRow(r.Bench, r.Storage,
			fmt.Sprintf("%.0f", r.TxPerSec),
			fmt.Sprintf("%.0f", r.BytesPerTx),
			fmt.Sprintf("%.3f", r.GCMigrationsPerTx),
			fmt.Sprintf("%.0f%%", 100*r.IPAFraction))
	}
	t.Notes = append(t.Notes,
		"bytes/tx counts every byte the flash array programs (pages, delta-records, PDL differentials) per committed tx",
		"ipa appends into the page's own delta area; pdl appends differential records to per-chip log blocks and merges on read")
	return t, nil
}
