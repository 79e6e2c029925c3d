package engine

import (
	"fmt"
	"sort"

	"ipa/internal/advisor"
	"ipa/internal/core"
	"ipa/internal/sim"
)

// This file is the engine side of the scheme advisor (paper Sec. 8.4):
// the WAL is profiled into per-table update-size CDFs and each table
// gets a storage-scheme recommendation. A region's scheme is fixed when
// the region is created; acting on the advice means creating a region
// with the recommended noftl.RegionConfig and placing the table there.

// WALProfile builds the advisor's update-size profile from the
// database's write-ahead log. This replaces reaching through the
// removed DB.Log accessor with advisor.FromLog.
func (db *DB) WALProfile() *advisor.Profile {
	return advisor.FromLog(db.log)
}

// WALTableProfiles builds one update-size profile per table from the
// write-ahead log. Pages not owned by any table (catalog, indexes) are
// grouped under the empty name.
func (db *DB) WALTableProfiles() map[string]*advisor.Profile {
	owner := make(map[core.PageID]string)
	db.catMu.Lock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.catMu.Unlock()
	for _, t := range tables {
		for _, id := range t.heapPages() {
			owner[id] = t.name
		}
	}
	return advisor.FromLogByTable(db.log, func(id core.PageID) (string, bool) {
		name, ok := owner[id]
		return name, ok
	})
}

// StorageDecision is one table's advice from AdviseStorage.
type StorageDecision struct {
	Table   string
	Region  string
	Samples int
	Advice  advisor.StorageAdvice
}

// AdviseStorage profiles the WAL per table and recommends a storage
// scheme for each (the paper's Table 1 comparison as a live decision).
// Tables with no WAL samples are skipped.
func (db *DB) AdviseStorage(w *sim.Worker, opts advisor.Options) ([]StorageDecision, error) {
	if opts.PageSize <= 0 {
		opts.PageSize = db.opts.PageSize
	}
	profs := db.WALTableProfiles()
	db.catMu.Lock()
	type tbl struct {
		name   string
		region string
	}
	tbls := make([]tbl, 0, len(db.tables))
	for name, t := range db.tables {
		tbls = append(tbls, tbl{name: name, region: t.st.Region().Name()})
	}
	db.catMu.Unlock()
	sort.Slice(tbls, func(i, j int) bool { return tbls[i].name < tbls[j].name })

	decisions := make([]StorageDecision, 0, len(tbls))
	for _, t := range tbls {
		p := profs[t.name]
		if p == nil || p.Len() == 0 {
			continue
		}
		adv, err := advisor.RecommendStorage(p, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: advise table %q: %w", t.name, err)
		}
		decisions = append(decisions, StorageDecision{
			Table: t.name, Region: t.region, Samples: p.Len(), Advice: adv,
		})
	}
	return decisions, nil
}
