package workload

import (
	"testing"

	"ipa/internal/sim"
)

func runYCSB(t *testing.T, mutate func(*YCSB), terminals, txTotal int) (Results, *YCSB) {
	t.Helper()
	db, tl := newConcurrentDBShards(t, 256, 8)
	y := NewYCSB(db, "main", 500)
	if mutate != nil {
		mutate(y)
	}
	loader := tl.NewWorker()
	if err := y.Load(loader); err != nil {
		t.Fatal(err)
	}
	ws := make([]*sim.Worker, terminals)
	for i := range ws {
		ws[i] = tl.NewWorker()
	}
	res, err := RunParallel(y, ws, txTotal, 11)
	if err != nil {
		t.Fatal(err)
	}
	return res, y
}

func TestYCSBMixes(t *testing.T) {
	// The subtest is named after the one tree, OLCIndex, as it was when a
	// second tree ran beside it.
	t.Run("olc", func(t *testing.T) {
		// Mixed 50/50 with some inserts and scans, Zipfian skew,
		// 8 real terminals.
		res, y := runYCSB(t, func(y *YCSB) {
			y.ReadPct, y.UpdatePct, y.InsertPct = 45, 40, 10 // 5% scans
			y.Zipfian = true
		}, 8, 2000)
		// Concurrent Zipfian updates can lose the no-wait lock race;
		// aborts are counted work, not failures.
		if res.Transactions+res.Aborted != 2000 {
			t.Fatalf("committed %d + aborted %d != 2000", res.Transactions, res.Aborted)
		}
		if res.Transactions == 0 {
			t.Fatal("no transaction committed")
		}
		if res.Throughput <= 0 {
			t.Error("no throughput measured")
		}
		for _, op := range []string{"Read", "Update", "Insert", "Scan"} {
			if res.PerType[op] == nil {
				t.Errorf("mix never issued a %s", op)
			}
		}
		st := y.Index().Stats()
		if st.Lookups == 0 || st.Inserts == 0 || st.Scans == 0 {
			t.Errorf("index stats did not record the run: %+v", st)
		}
	})
}

func TestYCSBUniformSingleTerminal(t *testing.T) {
	res, _ := runYCSB(t, nil, 1, 500)
	if res.Transactions != 500 || res.Aborted != 0 {
		t.Fatalf("committed %d, aborted %d", res.Transactions, res.Aborted)
	}
	if res.PerType["Read"] == nil {
		t.Fatal("default 95/5 mix issued no reads")
	}
}

// TestYCSBSnapshotScanMix: the scan-heavy snapshot mix (read80/scan20
// Zipfian) resolves every scanned tuple through the MVCC version store;
// scans hold no locks, so none of the aborts may come from the scan op.
func TestYCSBSnapshotScanMix(t *testing.T) {
	db, tl := newHTAPDB(t, 256, 8)
	defer db.Close()
	y := NewYCSB(db, "main", 500)
	y.ReadPct, y.UpdatePct, y.InsertPct = 60, 15, 5 // 20% scans
	y.Zipfian = true
	y.SnapshotScan = true
	loader := tl.NewWorker()
	if err := y.Load(loader); err != nil {
		t.Fatal(err)
	}
	ws := make([]*sim.Worker, 8)
	for i := range ws {
		ws[i] = tl.NewWorker()
		ws[i].SetNow(loader.Now())
	}
	res, err := RunParallel(y, ws, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerType["Scan"] == nil {
		t.Fatal("mix never issued a Scan")
	}
	if n := res.AbortedPerType["Scan"]; n != 0 {
		t.Fatalf("%d snapshot scans aborted", n)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MVCC.SnapshotReads == 0 || st.MVCC.SnapshotsStarted == 0 {
		t.Fatalf("scans did not resolve through the version store: %+v", st.MVCC)
	}
}

func TestYCSBRejectsBadMix(t *testing.T) {
	db, tl := newConcurrentDBShards(t, 64, 0)
	y := NewYCSB(db, "main", 10)
	y.ReadPct, y.UpdatePct, y.InsertPct = 80, 30, 10
	if err := y.Load(tl.NewWorker()); err == nil {
		t.Fatal("mix summing past 100 accepted")
	}
}
