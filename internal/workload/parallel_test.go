package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// newConcurrentDB builds the 16-chip SLC stack the paper's throughput
// experiments use, sized so TPC-B mostly hits the buffer but the flush
// path still exercises all chips.
func newConcurrentDB(tb testing.TB, frames int) (*engine.DB, *sim.Timeline) {
	return newConcurrentDBShards(tb, frames, 0)
}

// newConcurrentDBShards is newConcurrentDB with an explicit buffer-pool
// shard count (0 = the deterministic single-shard default).
func newConcurrentDBShards(tb testing.TB, frames, poolShards int) (*engine.DB, *sim.Timeline) {
	tb.Helper()
	g := flash.Geometry{
		Chips: 16, BlocksPerChip: 64, PagesPerBlock: 32,
		PageSize: 1024, OOBSize: 64, Cell: flash.SLC,
	}
	tl := sim.NewTimeline(g.Chips)
	arr, err := flash.New(flash.Config{
		Geometry: g, Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		tb.Fatal(err)
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "main", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 4),
		BlocksPerChip: 64, OverProvision: 0.15,
	}); err != nil {
		tb.Fatal(err)
	}
	db, err := engine.New(dev, engine.Options{
		PageSize: 1024, BufferFrames: frames, Timeline: tl,
		LogCapacity: 1 << 20, LogReclaimThreshold: 0.4,
		PoolShards: poolShards,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return db, tl
}

// TestRunParallelTPCB runs real concurrent terminals against one DB and
// checks that committed + aborted covers the requested volume and that
// every abort is a no-wait lock conflict (counted, not fatal).
func TestRunParallelTPCB(t *testing.T) {
	db, tl := newConcurrentDB(t, 256)
	b := NewTPCB(db, "main", 4, 500)
	loader := tl.NewWorker()
	if err := b.Load(loader); err != nil {
		t.Fatal(err)
	}
	const workers, total = 8, 800
	terminals := make([]*sim.Worker, workers)
	for i := range terminals {
		terminals[i] = tl.NewWorker()
		terminals[i].SetNow(loader.Now())
	}
	res, err := RunParallel(b, terminals, total, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions+res.Aborted != total {
		t.Fatalf("committed %d + aborted %d != %d", res.Transactions, res.Aborted, total)
	}
	if res.Transactions == 0 {
		t.Fatal("no transaction committed")
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	// The TPC-B branch table is tiny (4 branches here), so concurrent
	// workers must have produced at least some lock conflicts OR all
	// committed — both are legal; what is illegal is a deadlock, which
	// would have hung the test.
}

// faultyWorkload fails one specific RunOne call with a terminal
// (non-abort) error; every other call succeeds instantly.
type faultyWorkload struct {
	calls  atomic.Int64
	failAt int64
}

var errBoom = errors.New("workload: injected terminal failure")

func (f *faultyWorkload) Name() string             { return "faulty" }
func (f *faultyWorkload) Load(w *sim.Worker) error { return nil }
func (f *faultyWorkload) RunOne(w *sim.Worker, rng *rand.Rand) (string, error) {
	if f.calls.Add(1) == f.failAt {
		return "op", errBoom
	}
	return "op", nil
}

// TestRunParallelErrorPropagation: when one terminal hits a non-abort
// error, RunParallel must surface that error (wrapped, matchable with
// errors.Is) without deadlocking the other terminals — and the early
// stop must keep them from grinding through their full quotas first.
func TestRunParallelErrorPropagation(t *testing.T) {
	const terminals, total, failAt = 8, 80_000, 100
	tl := sim.NewTimeline(1)
	ws := make([]*sim.Worker, terminals)
	for i := range ws {
		ws[i] = tl.NewWorker()
	}
	wl := &faultyWorkload{failAt: failAt}
	res, err := RunParallel(wl, ws, total, 42)
	if err == nil {
		t.Fatal("terminal failure did not surface")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("error %v does not unwrap to the injected failure", err)
	}
	// Early stop: the healthy terminals bail at their next transaction
	// boundary instead of finishing ~10k transactions each.
	if calls := wl.calls.Load(); calls > failAt+1000 {
		t.Fatalf("ran %d transactions after the failure (early stop broken)", calls)
	}
	// The partial tallies survive for the caller's post-mortem.
	if res.Workload != "faulty" {
		t.Fatalf("results lost: %+v", res)
	}
}

// TestRunSerialReturnsTheError: the serial drivers step every terminal
// from one goroutine, so a RunOne error cannot be a lost lock race. Both
// return it with the terminal and step it came from and stop there,
// instead of counting an abort and printing a slightly smaller number.
func TestRunSerialReturnsTheError(t *testing.T) {
	const terminals, failAt = 3, 8 // the 8th call is step 7, terminal 1
	drivers := map[string]func(Workload, []*sim.Worker) (Results, error){
		"Run": func(wl Workload, ws []*sim.Worker) (Results, error) {
			return Run(wl, ws, 100, 42)
		},
		"RunForDuration": func(wl Workload, ws []*sim.Worker) (Results, error) {
			return RunForDuration(wl, ws, time.Second, 42)
		},
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			tl := sim.NewTimeline(1)
			ws := make([]*sim.Worker, terminals)
			for i := range ws {
				ws[i] = tl.NewWorker()
			}
			wl := &faultyWorkload{failAt: failAt}
			res, err := drive(wl, ws)
			if !errors.Is(err, errBoom) {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			if !strings.Contains(err.Error(), "terminal 1, step 7") {
				t.Errorf("err = %q, want it to name terminal 1, step 7", err)
			}
			if calls := wl.calls.Load(); calls != failAt {
				t.Errorf("ran %d transactions, want the run to stop at %d", calls, failAt)
			}
			if res.Transactions != failAt-1 || res.Aborted != 0 {
				t.Errorf("committed %d aborted %d, want %d and 0", res.Transactions, res.Aborted, failAt-1)
			}
		})
	}
}

// BenchmarkConcurrentTPCB measures committed-transaction throughput (in
// simulated tx/s) as the number of real concurrent workers grows on the
// 16-chip SLC configuration. Throughput must scale with workers until
// the chips saturate — the scaling acceptance test for removing the
// engine-wide mutex. Run with:
//
//	go test -bench ConcurrentTPCB -run xxx ./internal/workload/
func BenchmarkConcurrentTPCB(b *testing.B) {
	for _, shards := range []int{1, 16} {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				benchConcurrentTPCB(b, shards, workers)
			})
		}
	}
}

func benchConcurrentTPCB(b *testing.B, shards, workers int) {
	// Buffer-resident working set: scaling should come from the
	// engine (lock table, latches, group commit, pool shards), not
	// from page misses serialising on the flash chips.
	db, tl := newConcurrentDBShards(b, 4096, shards)
	wl := NewTPCB(db, "main", 4, 2000)
	loader := tl.NewWorker()
	if err := wl.Load(loader); err != nil {
		b.Fatal(err)
	}
	terminals := make([]*sim.Worker, workers)
	for i := range terminals {
		terminals[i] = tl.NewWorker()
		terminals[i].SetNow(loader.Now())
	}
	// Warmup outside the timer: grow the heap, the WAL ring and the
	// history table to their steady-state footprint so the first count
	// of a -count=N series measures the same regime as the rest (the
	// first run otherwise pays the runtime's heap-growth ramp).
	if _, err := RunParallel(wl, terminals, 5000, 3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// One op = 100 *committed* transactions (the unit TPC benchmarks
	// count): no-wait aborts are retried work the config pays for, not
	// throughput it delivers, so a config that aborts more must attempt
	// more inside the timer to finish the same op count.
	total := 2000
	if b.N > 1 {
		total = b.N * 100
	}
	var committed, aborted uint64
	simElapsed := 0.0
	for seed := int64(7); committed < uint64(total); seed++ {
		res, err := RunParallel(wl, terminals, total-int(committed), seed)
		if err != nil {
			b.Fatal(err)
		}
		if res.Transactions == 0 {
			b.Fatal("no transactions committed")
		}
		committed += res.Transactions
		aborted += res.Aborted
		simElapsed += float64(res.Transactions) / res.Throughput
	}
	b.StopTimer()
	b.ReportMetric(float64(committed)/simElapsed, "simtx/s")
	b.ReportMetric(float64(aborted), "aborts")
}
