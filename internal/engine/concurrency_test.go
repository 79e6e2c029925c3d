package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
)

// newTwoRegionRig builds a device with two independent regions so the
// concurrency tests exercise parallel fetch/flush across stores.
func newTwoRegionRig(t *testing.T, frames int) *DB {
	return newTwoRegionRigShards(t, frames, 0)
}

// newTwoRegionRigShards is newTwoRegionRig with an explicit buffer-pool
// shard count (0 = the single-shard default).
func newTwoRegionRigShards(t *testing.T, frames, poolShards int) *DB {
	t.Helper()
	return newRigWithOptions(t, rigGeometry(), Options{BufferFrames: frames, DirtyThreshold: 2.0, PoolShards: poolShards})
}

func seedTuples(t *testing.T, db *DB, tbl *Table, n int, tag byte) []core.RID {
	t.Helper()
	rids := make([]core.RID, n)
	tx := mustBegin(db, nil)
	for i := range rids {
		rid, err := tbl.Insert(tx, []byte(fmt.Sprintf("%c seed %04d value 0000000000", tag, i)))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return rids
}

// TestConcurrentNoWaitLocking runs ≥8 goroutines doing concurrent
// insert/update/commit/abort against two regions. The no-wait lock table
// must return ErrLockConflict on contention (never deadlock — the test
// completing is the deadlock assertion), and after the storm every
// surviving tuple must hold its last committed value.
func TestConcurrentNoWaitLocking(t *testing.T) {
	db := newTwoRegionRig(t, 64)
	t1, err := db.CreateTable("t1", "r1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db.CreateTable("t2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	tables := []*Table{t1, t2}

	const workers = 8
	const itersPerWorker = 150
	const ownedPerWorker = 4

	// Hot tuples shared by everyone (conflict generators) plus a disjoint
	// owned set per worker (exact-state verification).
	hot := [2][]core.RID{
		seedTuples(t, db, t1, 2, 'h'),
		seedTuples(t, db, t2, 2, 'H'),
	}
	owned := make([][]core.RID, workers)
	for g := 0; g < workers; g++ {
		owned[g] = seedTuples(t, db, tables[g%2], ownedPerWorker, 'a'+byte(g))
	}

	var conflicts atomic.Uint64
	// lastCommitted[g][i] is the value worker g last committed to its
	// owned tuple i (each worker writes only its own slice — no locking).
	lastCommitted := make([][]string, workers)

	var wg sync.WaitGroup
	start := make(chan struct{})
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(g)*104729 + 1))
			tbl := tables[g%2]
			hotSet := hot[g%2]
			mine := owned[g]
			last := make([]string, ownedPerWorker)
			for i := range last {
				last[i] = fmt.Sprintf("%c seed %04d value 0000000000", 'a'+byte(g), i)
			}
			lastCommitted[g] = last
			for it := 0; it < itersPerWorker; it++ {
				tx := mustBegin(db, nil)
				// Touch a hot tuple: a lock conflict here is expected and
				// aborts the transaction.
				hrid := hotSet[rng.Intn(len(hotSet))]
				if err := tbl.Update(tx, hrid, []byte(fmt.Sprintf("h hot! %04d value g%d-%08d", it, g, it))); err != nil {
					if errors.Is(err, ErrLockConflict) {
						conflicts.Add(1)
						if aerr := tx.Abort(); aerr != nil {
							errCh <- aerr
							return
						}
						continue
					}
					errCh <- err
					return
				}
				// Yield while holding the hot lock so other workers get a
				// chance to collide with it even on a single core.
				runtime.Gosched()
				// Update one owned tuple (never conflicts).
				oi := rng.Intn(ownedPerWorker)
				val := fmt.Sprintf("%c iter %04d value g%d-%04d00", 'a'+byte(g), it, g, it)
				if err := tbl.Update(tx, mine[oi], []byte(val)); err != nil {
					errCh <- err
					return
				}
				// Occasionally grow the heap concurrently.
				if it%10 == 0 {
					if _, err := tbl.Insert(tx, []byte(fmt.Sprintf("x ins %04d value g%d-%08d", it, g, it))); err != nil {
						errCh <- err
						return
					}
				}
				if rng.Intn(4) == 0 {
					if err := tx.Abort(); err != nil {
						errCh <- err
						return
					}
				} else {
					if err := tx.Commit(); err != nil {
						errCh <- err
						return
					}
					last[oi] = val
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if conflicts.Load() == 0 {
		t.Error("8 workers on 2 hot tuples produced zero lock conflicts")
	}
	// Every owned tuple reads back its last committed value (aborted
	// updates rolled back, committed ones durable in the buffer/log).
	for g := 0; g < workers; g++ {
		tbl := tables[g%2]
		for i, rid := range owned[g] {
			got, err := tbl.Read(nil, rid)
			if err != nil {
				t.Fatalf("worker %d tuple %d: %v", g, i, err)
			}
			if string(got) != lastCommitted[g][i] {
				t.Errorf("worker %d tuple %d = %q, want %q", g, i, got, lastCommitted[g][i])
			}
		}
	}
}

// TestConcurrentCrashRecovery crashes the engine with loser transactions
// in flight (begun, updated, never committed) after a concurrent update
// storm, and verifies restart recovery preserves exactly the committed
// state: committed updates survive, loser updates are undone. It runs
// against both the single-shard pool and an 8-way sharded pool —
// recovery must be oblivious to how the buffer is partitioned.
func TestConcurrentCrashRecovery(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("poolShards=%d", shards), func(t *testing.T) {
			testConcurrentCrashRecovery(t, shards)
		})
	}
}

func testConcurrentCrashRecovery(t *testing.T, poolShards int) {
	db := newTwoRegionRigShards(t, 32, poolShards)
	t1, err := db.CreateTable("t1", "r1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db.CreateTable("t2", "r2")
	if err != nil {
		t.Fatal(err)
	}
	tables := []*Table{t1, t2}

	const workers = 8
	rids := make([][]core.RID, workers)
	for g := 0; g < workers; g++ {
		rids[g] = seedTuples(t, db, tables[g%2], 3, 'a'+byte(g))
	}

	// Concurrent phase: every worker commits a known value to tuple 0 and
	// tuple 1, then leaves a loser transaction updating tuple 1 and
	// deleting tuple 2 open at the crash.
	committed := make([][]string, workers)
	losers := make([]*Tx, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tbl := tables[g%2]
			vals := []string{
				fmt.Sprintf("%c committed-0 value 00000000", 'a'+byte(g)),
				fmt.Sprintf("%c committed-1 value 00000000", 'a'+byte(g)),
				fmt.Sprintf("%c seed %04d value 0000000000", 'a'+byte(g), 2),
			}
			committed[g] = vals
			tx := mustBegin(db, nil)
			if err := tbl.Update(tx, rids[g][0], []byte(vals[0])); err != nil {
				errCh <- err
				return
			}
			if err := tbl.Update(tx, rids[g][1], []byte(vals[1])); err != nil {
				errCh <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errCh <- err
				return
			}
			// Loser: updates tuple 1 and deletes tuple 2, never commits.
			loser := mustBegin(db, nil)
			losers[g] = loser
			if err := tbl.Update(loser, rids[g][1], []byte(fmt.Sprintf("%c LOSER!!!-1 value 00000000", 'a'+byte(g)))); err != nil {
				errCh <- err
				return
			}
			if err := tbl.Delete(loser, rids[g][2]); err != nil {
				errCh <- err
				return
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// A loser survives the power cut only with a record on the durable
	// log: the log is forced by the other workers' commits, so the last
	// losers to begin may have left no trace.
	durable := 0
	for _, loser := range losers {
		if loser.firstLSN <= db.WAL().Flushed() {
			durable++
		}
	}
	rep, err := crash(db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UndoneTxs != durable {
		t.Errorf("UndoneTxs = %d, want %d", rep.UndoneTxs, durable)
	}

	for g := 0; g < workers; g++ {
		tbl := tables[g%2]
		for i := 0; i < 3; i++ {
			got, err := tbl.Read(nil, rids[g][i])
			if err != nil {
				t.Fatalf("worker %d tuple %d after recovery: %v", g, i, err)
			}
			if string(got) != committed[g][i] {
				t.Errorf("worker %d tuple %d = %q, want %q", g, i, got, committed[g][i])
			}
		}
	}
}

// TestOptionsValidate covers the config rejection satellite.
func TestOptionsValidate(t *testing.T) {
	good := Options{PageSize: 512, BufferFrames: 16}
	if err := good.Validate(512); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name  string
		o     Options
		flash int
	}{
		{"negative frames", Options{PageSize: 512, BufferFrames: -4}, 512},
		{"zero frames", Options{PageSize: 512}, 512},
		{"page size mismatch", Options{PageSize: 1024, BufferFrames: 16}, 512},
		{"default page vs small flash", Options{BufferFrames: 16}, 512},
		{"negative log capacity", Options{PageSize: 512, BufferFrames: 16, LogCapacity: -1}, 512},
		{"reclaim threshold ≥ 1", Options{PageSize: 512, BufferFrames: 16, LogReclaimThreshold: 1.5}, 512},
		{"negative dirty threshold", Options{PageSize: 512, BufferFrames: 16, DirtyThreshold: -0.5}, 512},
		{"negative pool shards", Options{PageSize: 512, BufferFrames: 16, PoolShards: -2}, 512},
		{"index kind other than OLC", Options{PageSize: 512, BufferFrames: 16, IndexKind: 1}, 512},
	}
	for _, c := range cases {
		if err := c.o.Validate(c.flash); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: Validate = %v, want ErrBadOptions", c.name, err)
		}
	}
}

// TestErrorSentinels pins the exported sentinel surface.
func TestErrorSentinels(t *testing.T) {
	db := newTwoRegionRig(t, 16)
	if _, err := db.attachRegion("nope"); !errors.Is(err, ErrNoRegion) {
		t.Errorf("attachRegion = %v, want ErrNoRegion", err)
	}
	if _, err := db.CreateTable("t", "nope"); !errors.Is(err, ErrNoRegion) {
		t.Errorf("CreateTable = %v, want ErrNoRegion", err)
	}
	tx := mustBegin(db, nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxClosed) {
		t.Errorf("double commit = %v, want ErrTxClosed", err)
	}
}
