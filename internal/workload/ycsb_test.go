package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/sim"
)

// YCSB is a YCSB-style key-value workload over one table and one
// ordered index: point reads, field updates, fresh-key inserts and
// short range scans in configurable proportions, with uniform or
// Zipfian key choice. Unlike the paper's transactional drivers it is
// index-centric — every operation starts at the B+tree — which makes it
// the concurrent workload of the index latching work: the tree under
// 1..N terminal goroutines (TestYCSBMixes, BenchmarkIndexYCSB).
//
// The standard mixes map as: workload B ≈ {Read:95, Update:5},
// A ≈ {Read:50, Update:50}, E ≈ {Scan:95, Insert:5}.
type YCSB struct {
	DB     *engine.DB
	Region string
	// Prefix names the table and index ("<Prefix>_kv", "<Prefix>_pk"),
	// so multiple instances can coexist in one database.
	Prefix string

	Records int // initial population (keys 1..Records)

	// Mix percentages; must sum to 100. Remainder after Read+Update+
	// Insert is Scan.
	ReadPct, UpdatePct, InsertPct int

	ScanLen int  // keys visited per scan (default 20)
	Zipfian bool // Zipfian instead of uniform key choice
	ZipfS   float64

	// SnapshotScan runs each scan as an MVCC snapshot transaction: the
	// index supplies the RID range, and every tuple is resolved through
	// the version store at the pinned snapshot LSN instead of the heap's
	// latest state. Requires the DB to run with MVCC enabled.
	SnapshotScan bool

	table *engine.Table
	idx   engine.Index
	sch   *engine.Schema // key(8) counter(8) filler(84)
	next  atomic.Uint64  // highest key assigned so far

	// zipfs caches one Zipf generator per terminal RNG: rand.Zipf is
	// not safe for concurrent use and is seeded from the terminal's
	// own rng, keeping runs deterministic per terminal.
	zipfs sync.Map // *rand.Rand -> *Zipf
}

// NewYCSB constructs a driver; Load must be called before RunOne.
func NewYCSB(db *engine.DB, region string, records int) *YCSB {
	sch, _ := engine.NewSchema(8, 8, 84)
	return &YCSB{
		DB: db, Region: region, Prefix: "ycsb",
		Records: records,
		ReadPct: 95, UpdatePct: 5,
		ScanLen: 20, ZipfS: 1.1,
		sch: sch,
	}
}

// Name implements Workload.
func (y *YCSB) Name() string {
	return fmt.Sprintf("YCSB(r%d/u%d/i%d/s%d)",
		y.ReadPct, y.UpdatePct, y.InsertPct,
		100-y.ReadPct-y.UpdatePct-y.InsertPct)
}

// Index exposes the index under test (for stats reporting).
func (y *YCSB) Index() engine.Index { return y.idx }

// Load creates the table and index and inserts the initial records.
func (y *YCSB) Load(w *sim.Worker) error {
	if y.ReadPct+y.UpdatePct+y.InsertPct > 100 {
		return fmt.Errorf("ycsb: mix sums past 100")
	}
	db := y.DB
	var err error
	if y.table, err = db.CreateTable(y.Prefix+"_kv", y.Region); err != nil {
		return err
	}
	if y.idx, err = db.CreateIndex(y.Prefix+"_pk", y.Region); err != nil {
		return err
	}
	for k := 1; k <= y.Records; k++ {
		if err := y.insertKey(w, uint64(k)); err != nil {
			return err
		}
	}
	y.next.Store(uint64(y.Records))
	return nil
}

func (y *YCSB) insertKey(w *sim.Worker, k uint64) error {
	tup := y.sch.New()
	y.sch.SetUint(tup, 0, k)
	rid, err := insertRow(y.DB, w, y.table, tup)
	if err != nil {
		return err
	}
	return y.idx.Insert(w, k, rid)
}

// pickKey draws a key from the populated range.
func (y *YCSB) pickKey(rng *rand.Rand) uint64 {
	n := y.next.Load()
	if n == 0 {
		return 1
	}
	if y.Zipfian {
		zi, ok := y.zipfs.Load(rng)
		if !ok {
			zi, _ = y.zipfs.LoadOrStore(rng, NewZipf(rng, y.ZipfS, uint64(y.Records)))
		}
		return zi.(*Zipf).Next() + 1
	}
	return rng.Uint64()%n + 1
}

// RunOne implements Workload. Keys drawn concurrently with an
// in-flight insert may not be indexed yet; reads and updates treat
// that as a clean miss, the way a YCSB client shrugs off a not-found.
func (y *YCSB) RunOne(w *sim.Worker, rng *rand.Rand) (string, error) {
	p := rng.Intn(100)
	switch {
	case p < y.ReadPct:
		k := y.pickKey(rng)
		rid, ok, err := y.idx.Lookup(w, k)
		if err != nil {
			return "Read", err
		}
		if !ok {
			return "Read", nil
		}
		_, err = y.table.Read(w, rid)
		return "Read", err
	case p < y.ReadPct+y.UpdatePct:
		k := y.pickKey(rng)
		rid, ok, err := y.idx.Lookup(w, k)
		if err != nil || !ok {
			return "Update", err
		}
		tx, err := y.DB.Begin(w)
		if err != nil {
			return "Update", err
		}
		cur, err := y.table.Read(w, rid)
		if err != nil {
			tx.Abort()
			return "Update", err
		}
		y.sch.SetUint(cur, 1, rng.Uint64())
		if err := y.table.Update(tx, rid, cur); err != nil {
			tx.Abort()
			return "Update", err
		}
		return "Update", tx.Commit()
	case p < y.ReadPct+y.UpdatePct+y.InsertPct:
		k := y.next.Add(1)
		tup := y.sch.New()
		y.sch.SetUint(tup, 0, k)
		rid, err := insertRow(y.DB, w, y.table, tup)
		if err != nil {
			return "Insert", err
		}
		return "Insert", y.idx.Insert(w, k, rid)
	default:
		lo := y.pickKey(rng)
		limit := y.ScanLen
		if limit <= 0 {
			limit = 20
		}
		var rids []core.RID
		err := y.idx.Range(w, lo, ^uint64(0)>>1, func(key uint64, rid core.RID) bool {
			rids = append(rids, rid)
			return len(rids) < limit
		})
		if err != nil || !y.SnapshotScan {
			return "Scan", err
		}
		// Snapshot mode: resolve each scanned tuple through the version
		// store at a pinned LSN — lock-free, abort-free stable reads.
		tx, err := y.DB.BeginSnapshot(w)
		if err != nil {
			return "Scan", err
		}
		for _, rid := range rids {
			if _, err := y.table.ReadSnapshot(tx, rid); err != nil {
				if errors.Is(err, engine.ErrNoTuple) {
					continue // drawn concurrently with an in-flight insert
				}
				tx.Abort()
				return "Scan", err
			}
		}
		return "Scan", tx.Commit()
	}
}

func runYCSB(t *testing.T, mutate func(*YCSB), terminals, txTotal int) (parallelResults, *YCSB) {
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
