package engine

import (
	"errors"
	"sync"
	"testing"
)

// TestErrClosedDeterministic: once Close has returned, Begin, Checkpoint
// and Stats must all fail with ErrClosed. The server layer's graceful
// shutdown relies on this ordering.
func TestErrClosedDeterministic(t *testing.T) {
	db := newTwoRegionRig(t, 32)
	tbl, err := db.CreateTable("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(db, nil)
	if _, err := tbl.Insert(tx, []byte("before close, all fine")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := db.Begin(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after Close: %v, want ErrClosed", err)
	}
	if _, err := db.Stats(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Stats after Close: %v, want ErrClosed", err)
	}
}

// TestCloseIdempotent: repeated Close calls, in sequence and at once,
// drain the MVCC version reaper exactly once (a second drain racing the
// first would close a closed channel).
func TestCloseIdempotent(t *testing.T) {
	db := newRigWithOptions(t, rigGeometry(), Options{
		BufferFrames: 32, MVCC: true, DirtyThreshold: 2.0,
	})
	for i := 0; i < 3; i++ {
		if err := db.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	// Concurrent Close from many goroutines must also be safe.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestSimulateCrashReopens: SimulateCrash models a process restart, so a
// closed instance comes back open (version reaper restarted) and normal
// work resumes after Recover.
func TestSimulateCrashReopens(t *testing.T) {
	db := newRigWithOptions(t, rigGeometry(), Options{
		BufferFrames: 32, MVCC: true, DirtyThreshold: 2.0,
	})
	tbl, err := db.CreateTable("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(db, nil)
	rid, err := tbl.Insert(tx, []byte("survives the close/crash/recover cycle"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after Close: %v, want ErrClosed", err)
	}
	if _, err := crash(db); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got, err := tbl.Read(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives the close/crash/recover cycle" {
		t.Fatalf("recovered tuple = %q", got)
	}
	tx = mustBegin(db, nil) // reopened: Begin works again
	if _, err := tbl.Insert(tx, []byte("new work after reopen")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Stats(); err != nil {
		t.Fatalf("Stats after reopen: %v", err)
	}
	if err := db.Close(); err != nil { // and Close works a second life too
		t.Fatal(err)
	}
}

// TestCrashedInstanceIsDown: between the power cut and the restart the
// instance serves nothing, and Recover restarts only a crashed instance.
func TestCrashedInstanceIsDown(t *testing.T) {
	db := newTwoRegionRig(t, 16)
	if _, err := db.Recover(nil); err == nil {
		t.Fatal("Recover of a running instance succeeded")
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after the crash: %v, want ErrClosed", err)
	}
	if _, err := db.Recover(nil); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(db, nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(nil); err == nil {
		t.Error("a second Recover without a crash succeeded")
	}
}

// TestBeginCloseRace: hammer Begin from many goroutines while Close
// lands in the middle. Every Begin must either succeed fully (and the
// transaction remain abortable) or fail with ErrClosed — nothing in
// between, and no race-detector findings.
func TestBeginCloseRace(t *testing.T) {
	db := newTwoRegionRig(t, 32)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				tx, err := db.Begin(nil)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Begin: %v", err)
					}
					return
				}
				if err := tx.Abort(); err != nil {
					t.Errorf("Abort: %v", err)
				}
			}
		}()
	}
	close(start)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := db.Begin(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after Close returned: %v, want ErrClosed", err)
	}
}
