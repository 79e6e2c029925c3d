package engine

import (
	"fmt"
	"testing"

	"ipa/internal/wal"
)

// The flushed-image property (imageCheckStore in export_test.go: after
// every flush, what storage holds equals the frame) under the paths that
// change pages from log records. Restart redo and abort undo run under
// it in TestCrashAtEveryStepFieldUpdates; this is the follower: the
// Applier replays the field-update script — patches, growing updates, an
// insert, a delete, an abort and a transaction left open — into a pool
// of two frames under a table of three to five pages, and every few
// records all of it is flushed, so pages are written, evicted, fetched
// back and changed again all along the stream. TPC-B and YCSB run under the same
// check in flushimage_workload_test.go.
func TestFlushedImageApplier(t *testing.T) {
	for _, cell := range RegionCells {
		for _, mvcc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mvcc=%v", cell.Name, mvcc), func(t *testing.T) {
				opts := Options{BufferFrames: 6, DirtyThreshold: 2.0, MVCC: mvcc, Replicated: true}
				primary := newCellRigOpts(t, cell, opts)
				defer primary.db.Close()
				opts.BufferFrames = 2
				follower := newCellRigOpts(t, cell, opts)
				defer follower.db.Close()
				if err := follower.db.VerifyFlushedImages(func(err error) { t.Error(err) }); err != nil {
					t.Fatal(err)
				}
				a, err := follower.db.NewApplier(nil)
				if err != nil {
					t.Fatal(err)
				}
				s := loadFieldScript(t, primary.db)
				s.run(t, fieldScriptSteps)
				for a.AppliedLSN() < primary.db.WAL().Head() {
					var recs []wal.Record
					if _, err := primary.db.WAL().ReadFrom(a.AppliedLSN()+1, 4, 1<<20, func(r wal.Record) { recs = append(recs, r) }); err != nil {
						t.Fatal(err)
					}
					if err := a.Apply(recs); err != nil {
						t.Fatal(err)
					}
					if err := follower.db.FlushAll(nil); err != nil {
						t.Fatal(err)
					}
				}
				ftb, err := follower.db.Table("t")
				if err != nil {
					t.Fatal(err)
				}
				diffStates(t, scanAll(t, s.tbl), scanAll(t, ftb))
				st := follower.db.Store("main").Stats()
				if st.FlushesDelta+st.FlushesOOP < 20 {
					t.Errorf("the follower flushed %d pages; its pool is meant to be too small for the table",
						st.FlushesDelta+st.FlushesOOP)
				}
			})
		}
	}
}
