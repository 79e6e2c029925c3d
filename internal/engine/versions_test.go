package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
)

// TestRecycledImagesAreNotTorn: writers rewrite whole tuples whose bytes
// all carry one value, while snapshot readers — point reads and scans —
// begin and end, each end waking the reaper, which prunes entries and
// hands their buffers to the next install. A reader must get a copy of
// its own: every tuple it gets back is uniform, and is still what it was
// once the reader's snapshot has ended and the writers have moved on. A
// store buffer handed to a reader turns into a mix of two images, or
// into a later one, and under -race (make race-regress) into a reported
// race.
func TestRecycledImagesAreNotTorn(t *testing.T) {
	const rows, tupleLen, writers, readers = 8, 128, 2, 2
	iters := 1500
	if raceEnabled {
		iters = 500
	}
	db := newRigWithOptions(t, rigGeometry(), Options{
		PageSize: 512, BufferFrames: 64, LogCapacity: 1 << 20, MVCC: true,
	})
	defer db.Close()
	tb, err := db.CreateTable("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, tupleLen) }
	rids := make([]core.RID, rows)
	tx := mustBegin(db, nil)
	for i := range rids {
		if rids[i], err = tb.Insert(tx, fill(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// uniform reports why tup is not one value repeated, or "".
	uniform := func(tup []byte) string {
		if len(tup) != tupleLen {
			return fmt.Sprintf("%d bytes, want %d", len(tup), tupleLen)
		}
		for i, b := range tup {
			if b != tup[0] {
				return fmt.Sprintf("byte %d is %d, byte 0 is %d", i, b, tup[0])
			}
		}
		return ""
	}

	var writing sync.WaitGroup
	var done atomic.Bool
	for g := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			// Writer g owns the rows i with i%writers == g: no conflicts.
			for it := 1; it <= iters; it++ {
				tx := mustBegin(db, nil)
				rid := rids[g+writers*(it%(rows/writers))]
				err := tb.Update(tx, rid, fill(byte(it)))
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					tx.Abort()
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}()
	}
	var reading sync.WaitGroup
	for r := range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for !done.Load() {
				snap, err := db.BeginSnapshot(nil)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				var got [][]byte
				for _, rid := range rids {
					tup, err := tb.ReadSnapshot(snap, rid)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					got = append(got, tup)
				}
				// A scanned tuple is valid until the callback returns: it
				// is checked there, and a copy is kept.
				if err := tb.ScanSnapshot(snap, core.RID{}, nil, func(_ core.RID, tup []byte) bool {
					if why := uniform(tup); why != "" {
						t.Errorf("reader %d: scanned tuple is torn: %s", r, why)
						return false
					}
					got = append(got, append([]byte(nil), tup...))
					return true
				}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				first := make([]byte, len(got))
				for i, tup := range got {
					if why := uniform(tup); why != "" {
						t.Errorf("reader %d: tuple %d is torn: %s", r, i, why)
						return
					}
					first[i] = tup[0]
				}
				if err := snap.Commit(); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				runtime.Gosched() // let the reaper recycle and the writers overwrite
				for i, tup := range got {
					if why := uniform(tup); why != "" {
						t.Errorf("reader %d: tuple %d was all %d and is torn after its snapshot ended: %s", r, i, first[i], why)
						return
					}
					if tup[0] != first[i] {
						t.Errorf("reader %d: tuple %d was all %d and is all %d after its snapshot ended", r, i, first[i], tup[0])
						return
					}
				}
			}
		}()
	}
	writing.Wait()
	done.Store(true)
	reading.Wait()
	if st, _ := db.Stats(); st.MVCC.PruneRuns == 0 || st.MVCC.SnapshotReads == 0 {
		t.Fatalf("the run recycled nothing: %+v", st.MVCC)
	}
}

// TestVersionStoreFootprint: the version store's memory follows its data.
// A snapshot pins 100 000 before-images of 100-byte rows; once it ends,
// one reaper pass releases every one of them, and what stays is the image
// bytes the bounded free lists keep for reuse: under 1 MiB.
func TestVersionStoreFootprint(t *testing.T) {
	const rows, rounds, rowLen = 1000, 100, 100
	const bound = 1 << 20
	db := newRigWithOptions(t, rigGeometry(), Options{
		PageSize: 512, BufferFrames: 512, LogCapacity: 1 << 20, MVCC: true,
	})
	defer db.Close()
	db.vs.stopReaper() // the test runs the one reaper pass itself
	tb, err := db.CreateTable("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]core.RID, rows)
	tx := mustBegin(db, nil)
	for i := range rids {
		if rids[i], err = tb.Insert(tx, make([]byte, rowLen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.vs.reap(db.log.Head())

	snap, err := db.BeginSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for range rounds {
		tx := mustBegin(db, nil)
		for _, rid := range rids {
			if err := tb.AddField(tx, rid, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pinned, _ := db.Stats()
	t.Logf("pinned: %d versions, %d image bytes", pinned.MVCC.VersionsLive, pinned.MVCC.ImageBytes)
	if pinned.MVCC.VersionsLive != rows*rounds || pinned.MVCC.ImageBytes < rows*rounds*rowLen {
		t.Fatalf("a snapshot pins %d versions in %d image bytes, want %d in at least %d",
			pinned.MVCC.VersionsLive, pinned.MVCC.ImageBytes, rows*rounds, rows*rounds*rowLen)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	db.vs.reap(db.log.Head())
	st, _ := db.Stats()
	t.Logf("after one reaper pass: %d versions, %d image bytes", st.MVCC.VersionsLive, st.MVCC.ImageBytes)
	if st.MVCC.VersionsLive != 0 || st.MVCC.ImageBytes >= bound {
		t.Errorf("after the snapshot and one reaper pass the store holds %d versions and %d image bytes, want 0 and < %d",
			st.MVCC.VersionsLive, st.MVCC.ImageBytes, bound)
	}
}
