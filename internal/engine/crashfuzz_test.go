package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ipa/internal/core"
	"ipa/internal/noftl"
)

// TestCrashConsistencyFuzz runs randomized transaction streams against
// the engine, crashes at arbitrary points (with arbitrary subsets of
// dirty pages stolen to flash as delta-records or page writes), recovers,
// and verifies that exactly the committed state survives. This is the
// strongest form of the paper's Sec. 6.2 claim: IPA changes the write
// path, never the recovery contract.
func TestCrashConsistencyFuzz(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashFuzz(t, seed)
		})
	}
}

func runCrashFuzz(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 24, false)
	tbl, err := r.db.CreateTable("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := NewSchema(8, 8)

	// committed mirrors exactly the state of committed transactions.
	committed := map[core.RID]uint64{}

	// Base rows.
	tx := mustBegin(r.db, nil)
	var rids []core.RID
	for i := 0; i < 30; i++ {
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		committed[rid] = 0
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.db.FlushAll(nil)

	for round := 0; round < 6; round++ {
		// A batch of transactions; each either commits (mirrored), aborts,
		// or is left open across the crash (a loser). Write-write
		// conflicts with still-open transactions fail with
		// ErrLockConflict (no-wait 2PL) and abort the whole transaction.
		var open []*Tx
		for i := 0; i < 10; i++ {
			tx := mustBegin(r.db, nil)
			mods := map[core.RID]uint64{}
			nOps := 1 + rng.Intn(4)
			conflicted := false
			for j := 0; j < nOps; j++ {
				rid := rids[rng.Intn(len(rids))]
				cur, err := tbl.Read(nil, rid)
				if err != nil {
					t.Fatal(err)
				}
				nv := rng.Uint64() % 1_000_000
				sch.SetUint(cur, 1, nv)
				if err := tbl.Update(tx, rid, cur); err != nil {
					if errors.Is(err, ErrLockConflict) {
						conflicted = true
						break
					}
					t.Fatal(err)
				}
				mods[rid] = nv
			}
			if conflicted {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			switch rng.Intn(4) {
			case 0: // leave open across the crash: a loser
				open = append(open, tx)
			case 1: // explicit abort before the crash
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			default: // commit: becomes the expected state
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for rid, v := range mods {
					committed[rid] = v
				}
			}
		}
		_ = open
		// Steal a random subset of dirty pages to flash (some as
		// delta-records, some out-of-place) before the crash.
		if rng.Intn(2) == 0 {
			if _, err := r.db.Pool().FlushOldest(nil, rng.Intn(16)); err != nil {
				t.Fatal(err)
			}
		}
		// CRASH + recover.
		if _, err := crash(r.db); err != nil {
			t.Fatal(err)
		}
		// Verify: every row holds exactly its committed value. Note that
		// aborted/loser values must be gone even if they reached flash.
		for _, rid := range rids {
			got, err := tbl.Read(nil, rid)
			if err != nil {
				t.Fatalf("round %d: read %v: %v", round, rid, err)
			}
			if v := sch.GetUint(got, 1); v != committed[rid] {
				t.Fatalf("round %d: row %v = %d, want %d", round, rid, v, committed[rid])
			}
		}
	}
}

// TestCrashDuringHeavyStealing crashes while most of the buffer is being
// recycled (tiny pool, constant stealing), the regime where delta-records
// of uncommitted transactions are guaranteed to be on flash.
func TestCrashDuringHeavyStealing(t *testing.T) {
	r := newRig(t, noftl.ModeSLC, core.NewScheme(2, 4), 4, false)
	tbl, _ := r.db.CreateTable("t", "main")
	sch, _ := NewSchema(8, 120)
	tx := mustBegin(r.db, nil)
	var rids []core.RID
	for i := 0; i < 40; i++ {
		tup := sch.New()
		sch.SetUint(tup, 0, uint64(i))
		rid, err := tbl.Insert(tx, tup)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	tx.Commit()

	// One loser touching every row; the 4-frame pool steals constantly.
	loser := mustBegin(r.db, nil)
	for _, rid := range rids {
		cur, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		sch.SetUint(cur, 1, 666)
		if err := tbl.Update(loser, rid, cur); err != nil {
			t.Fatal(err)
		}
	}
	if r.db.Store("main").Region().Stats().HostWrites() == 0 {
		t.Fatal("nothing was stolen to flash")
	}
	rep, err := crash(r.db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneTxs != 1 {
		t.Errorf("UndoneTxs = %d", rep.UndoneTxs)
	}
	for i, rid := range rids {
		got, err := tbl.Read(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		if sch.GetUint(got, 1) != 0 {
			t.Errorf("row %d = %d, want 0 (loser undone)", i, sch.GetUint(got, 1))
		}
	}
}

// newCellRig opens a DB over one "main" region of the given cell, with
// or without the MVCC version store.
func newCellRig(t *testing.T, cell RegionCell, mvcc bool, frames int) *testRig {
	t.Helper()
	return newCellRigOpts(t, cell, Options{BufferFrames: frames, DirtyThreshold: 2.0, MVCC: mvcc})
}

// newCellRigOpts is newCellRig with the engine options spelled out.
func newCellRigOpts(t *testing.T, cell RegionCell, opts Options) *testRig {
	t.Helper()
	return newMainRig(t, cell.Config("main", 32), opts)
}

// fieldScript is a fixed interleaving of five transactions that mixes
// the field updates (AddField, UpdateField: OpPatch records) with
// whole-tuple Update, Insert and Delete on 40 rows of 24 bytes: several
// patches to one tuple, patches after a growing Update relocated the
// tuple, an explicit abort, a transaction that never ends, and commits
// in between. Every step appends to the log; run executes steps
// [0, upTo) and returns the rows as the committed transactions among
// them leave the table.
type fieldScript struct {
	db   *DB
	tbl  *Table
	rids []core.RID

	committed map[core.RID][]byte
	txs       map[int]*Tx
	staged    map[int]map[core.RID][]byte // nil value = deleted
}

const fieldScriptSteps = 31

func (s *fieldScript) row(tx int, rid core.RID) []byte {
	if r, ok := s.staged[tx][rid]; ok {
		return append([]byte(nil), r...)
	}
	return append([]byte(nil), s.committed[rid]...)
}

func (s *fieldScript) run(t *testing.T, upTo int) {
	t.Helper()
	begin := func(tx int) func() error {
		return func() (err error) {
			s.txs[tx], err = s.db.Begin(nil)
			s.staged[tx] = map[core.RID][]byte{}
			return err
		}
	}
	add := func(tx, row, off int, delta uint64) func() error {
		return func() error {
			rid := s.rids[row]
			r := s.row(tx, rid)
			binary.LittleEndian.PutUint64(r[off:], binary.LittleEndian.Uint64(r[off:])+delta)
			s.staged[tx][rid] = r
			return s.tbl.AddField(s.txs[tx], rid, off, delta)
		}
	}
	set := func(tx, row, off int, val string) func() error {
		return func() error {
			rid := s.rids[row]
			r := s.row(tx, rid)
			copy(r[off:], val)
			s.staged[tx][rid] = r
			return s.tbl.UpdateField(s.txs[tx], rid, off, []byte(val))
		}
	}
	update := func(tx, row int, suffix string) func() error {
		return func() error {
			rid := s.rids[row]
			r := append(s.row(tx, rid)[:24], suffix...)
			s.staged[tx][rid] = r
			return s.tbl.Update(s.txs[tx], rid, r)
		}
	}
	del := func(tx, row int) func() error {
		return func() error {
			s.staged[tx][s.rids[row]] = nil
			return s.tbl.Delete(s.txs[tx], s.rids[row])
		}
	}
	insert := func(tx int) func() error {
		return func() error {
			r := make([]byte, 24)
			copy(r[16:], "inserted")
			rid, err := s.tbl.Insert(s.txs[tx], r)
			s.rids = append(s.rids, rid) // row 40
			s.staged[tx][rid] = r
			return err
		}
	}
	commit := func(tx int) func() error {
		return func() error {
			for rid, r := range s.staged[tx] {
				if r == nil {
					delete(s.committed, rid)
				} else {
					s.committed[rid] = r
				}
			}
			return s.txs[tx].Commit()
		}
	}
	abort := func(tx int) func() error { return func() error { return s.txs[tx].Abort() } }

	steps := []func() error{
		begin(1), add(1, 0, 8, 5), add(1, 0, 8, 7), set(1, 1, 16, "one"),
		begin(2), update(2, 2, "-grown-and-relocated"), add(2, 2, 8, 3),
		commit(1),
		set(2, 2, 30, "PATCH"), add(2, 3, 8, 9), abort(2),
		begin(3), add(3, 0, 8, 100), update(3, 0, ""), add(3, 0, 8, ^uint64(0)),
		begin(4), add(4, 20, 8, 1), set(4, 21, 16, "loser"), update(4, 21, "-loser-grows"), add(4, 21, 8, 2),
		commit(3),
		begin(5), del(5, 4), insert(5), add(5, 40, 8, 77), set(5, 5, 0, "five"), update(5, 39, "-tail"), add(5, 39, 8, 1),
		commit(5),
		add(4, 22, 8, 4), set(4, 20, 17, "x"), // transaction 4 never ends
	}
	if len(steps) != fieldScriptSteps {
		t.Fatalf("script has %d steps, fieldScriptSteps says %d", len(steps), fieldScriptSteps)
	}
	for i, step := range steps[:upTo] {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestCrashAtEveryStepFieldUpdates crashes the scripted workload after
// every one of its steps — so at every LSN an API call can end on — in
// each region cell ([0×0], [2×4], pdl) with the version store off and
// on, steals a varying number of dirty pages first, recovers (mapping
// rebuilt from flash, then redo and undo), and requires exactly the
// committed rows.
// With MVCC on, a snapshot taken just before the crash must show the
// same rows: the patched tuples' before-images resolve to committed
// state.
func TestCrashAtEveryStepFieldUpdates(t *testing.T) {
	for _, cell := range RegionCells {
		for _, mvcc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mvcc=%v", cell.Name, mvcc), func(t *testing.T) {
				for crashAt := 1; crashAt <= fieldScriptSteps; crashAt++ {
					crashFieldScript(t, cell, mvcc, crashAt)
				}
			})
		}
	}
}

// loadFieldScript creates the script's table "t" in region "main" and
// loads and flushes its rows: 40 of them over what the tests make a
// six-frame pool. Every third insert is a spacer, deleted again, so each
// page has room for the script's growing Updates whatever the scheme's
// page layout.
func loadFieldScript(t *testing.T, db *DB) *fieldScript {
	t.Helper()
	tbl, err := db.CreateTable("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	s := &fieldScript{
		db: db, tbl: tbl, committed: map[core.RID][]byte{},
		txs: map[int]*Tx{}, staged: map[int]map[core.RID][]byte{},
	}
	tx := mustBegin(db, nil)
	for i := 0; i < 60; i++ {
		row := make([]byte, 24)
		binary.LittleEndian.PutUint64(row, uint64(i))
		copy(row[16:], "--------")
		rid, err := tbl.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := tbl.Delete(tx, rid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		s.rids = append(s.rids, rid)
		s.committed[rid] = row
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	return s
}

func crashFieldScript(t *testing.T, cell RegionCell, mvcc bool, crashAt int) {
	r := newCellRig(t, cell, mvcc, 6)
	defer r.db.Close()
	// Every flush of the run — the script's, the steals before the crash,
	// and those redo and undo cause after it — must leave storage equal
	// to the frame.
	if err := r.db.VerifyFlushedImages(func(err error) { t.Errorf("crash at step %d: %v", crashAt, err) }); err != nil {
		t.Fatal(err)
	}
	s := loadFieldScript(t, r.db)
	tbl := s.tbl
	s.run(t, crashAt)

	verify := func(when string, read func(core.RID) ([]byte, error)) {
		t.Helper()
		for i, rid := range s.rids {
			got, err := read(rid)
			want, live := s.committed[rid]
			switch {
			case !live && errors.Is(err, ErrNoTuple):
			case !live:
				t.Fatalf("crash at step %d, %s: row %d = %x, %v; want no tuple", crashAt, when, i, got, err)
			case err != nil:
				t.Fatalf("crash at step %d, %s: row %d: %v", crashAt, when, i, err)
			case !bytes.Equal(got, want):
				t.Fatalf("crash at step %d, %s: row %d = %x, want %x", crashAt, when, i, got, want)
			}
		}
	}
	if mvcc {
		snap, err := r.db.BeginSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		verify("snapshot before the crash", func(rid core.RID) ([]byte, error) { return tbl.ReadSnapshot(snap, rid) })
		snap.Abort()
	}
	if _, err := r.db.Pool().FlushOldest(nil, crashAt%4); err != nil {
		t.Fatal(err)
	}
	if _, err := crash(r.db); err != nil {
		t.Fatalf("crash at step %d: recover: %v", crashAt, err)
	}
	verify("after recovery", func(rid core.RID) ([]byte, error) { return tbl.Read(nil, rid) })
	// What redo and undo rebuilt in the pool must reach flash like any
	// other change: flush it, lose the pool again, and read it back.
	if err := r.db.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := crash(r.db); err != nil {
		t.Fatalf("crash at step %d: second recover: %v", crashAt, err)
	}
	verify("after flushing the recovered pages and a second crash", func(rid core.RID) ([]byte, error) { return tbl.Read(nil, rid) })
}
