package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/metrics"
	"ipa/internal/sim"
)

// RunParallel executes txTotal transactions spread over the given
// terminal workers, one goroutine per terminal, all hammering the same
// DB. This is the mode the fine-grained engine concurrency exists for:
// simulated chip-level interference is exercised by real concurrent
// workers instead of a round-robin loop. Transactions that lose a
// no-wait tuple-lock race (engine.ErrLockConflict) count as aborts —
// the driver, like a real terminal, retries with its next transaction.
func RunParallel(wl Workload, terminals []*sim.Worker, txTotal int, seed int64) (parallelResults, error) {
	return runParallel(wl, terminals, txTotal, seed, new(atomic.Bool))
}

// parallelResults is what RunParallel measures: the serial drivers'
// Results plus the aborts that only concurrent terminals can have.
type parallelResults struct {
	Results
	// Aborted counts the transactions that lost a no-wait tuple-lock
	// race; AbortedPerType splits it by transaction type — how the HTAP
	// audit separates writer aborts from read-path (scan) aborts.
	Aborted        uint64
	AbortedPerType map[string]uint64
}

// runParallel is RunParallel with its stop flag passed in, so a test can
// see when the driver has told the terminals to stop. One terminal
// hitting a non-abort error sets the flag, which ends the others at their
// next transaction boundary: the run is doomed, so finishing quotas would
// only bury the first failure under later noise.
func runParallel(wl Workload, terminals []*sim.Worker, txTotal int, seed int64, stop *atomic.Bool) (parallelResults, error) {
	base, start, err := newResults(wl, terminals)
	res := parallelResults{Results: base}
	if err != nil {
		return res, err
	}

	// Per-terminal tallies, merged after the barrier (no lock on the hot
	// path except the shared latency recorders, which are internally
	// synchronised).
	type tally struct {
		committed     uint64
		aborted       uint64
		abortedByType map[string]uint64
	}
	tallies := make([]tally, len(terminals))
	errs := make([]error, len(terminals))
	perTypeMu := sync.Mutex{}

	quota := func(t int) int {
		q := txTotal / len(terminals)
		if t < txTotal%len(terminals) {
			q++
		}
		return q
	}

	var wg sync.WaitGroup
	for t := range terminals {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			w := terminals[t]
			rng := terminalRNG(seed, t)
			for i := 0; i < quota(t); i++ {
				if stop.Load() {
					return
				}
				before := w.Now()
				w.Compute(TxCPUTime)
				name, err := wl.RunOne(w, rng)
				if err != nil {
					if errors.Is(err, engine.ErrLockConflict) {
						tallies[t].aborted++
						if tallies[t].abortedByType == nil {
							tallies[t].abortedByType = make(map[string]uint64)
						}
						tallies[t].abortedByType[name]++
						continue
					}
					errs[t] = err
					stop.Store(true)
					return
				}
				lat := time.Duration(w.Now() - before)
				tallies[t].committed++
				res.TxLatency.Add(lat)
				perTypeMu.Lock()
				pl := res.PerType[name]
				if pl == nil {
					pl = &metrics.Latency{}
					res.PerType[name] = pl
				}
				perTypeMu.Unlock()
				pl.Add(lat)
			}
		}(t)
	}
	wg.Wait()

	for t := range terminals {
		if errs[t] != nil {
			return res, fmt.Errorf("workload: terminal %d: %w", t, errs[t])
		}
		res.Transactions += tallies[t].committed
		res.Aborted += tallies[t].aborted
		for name, n := range tallies[t].abortedByType {
			if res.AbortedPerType == nil {
				res.AbortedPerType = make(map[string]uint64)
			}
			res.AbortedPerType[name] += n
		}
	}
	res.finish(terminals, start)
	return res, nil
}

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
	return openMain(tb, 16, 64, core.NewScheme(2, 4), engine.Options{BufferFrames: frames, PoolShards: poolShards})
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
// (non-abort) error; every other call succeeds instantly. Given the
// driver's stop flag, it parks every call after the failing one until
// the flag is set, and counts those calls per terminal worker.
type faultyWorkload struct {
	calls  atomic.Int64
	failAt int64

	stop  *atomic.Bool
	mu    sync.Mutex
	after map[*sim.Worker]int
}

var errBoom = errors.New("workload: injected terminal failure")

func (f *faultyWorkload) Name() string             { return "faulty" }
func (f *faultyWorkload) Load(w *sim.Worker) error { return nil }
func (f *faultyWorkload) RunOne(w *sim.Worker, rng *rand.Rand) (string, error) {
	n := f.calls.Add(1)
	if n == f.failAt {
		return "op", errBoom
	}
	if n > f.failAt && f.stop != nil {
		f.mu.Lock()
		f.after[w]++
		f.mu.Unlock()
		for !f.stop.Load() {
			runtime.Gosched()
		}
	}
	return "op", nil
}

// TestRunParallelErrorPropagation: when one terminal hits a non-abort
// error, RunParallel must surface that error (wrapped, matchable with
// errors.Is) without deadlocking the other terminals — and the early
// stop must keep them from grinding through their full quotas first.
// Every call after the failure waits for the driver's stop flag, so a
// terminal that checks the flag at its transaction boundary makes at
// most the one call it had begun, however the goroutines are scheduled.
func TestRunParallelErrorPropagation(t *testing.T) {
	const terminals, total, failAt = 8, 80_000, 100
	tl := sim.NewTimeline(1)
	ws := make([]*sim.Worker, terminals)
	for i := range ws {
		ws[i] = tl.NewWorker()
	}
	stop := new(atomic.Bool)
	wl := &faultyWorkload{failAt: failAt, stop: stop, after: map[*sim.Worker]int{}}
	res, err := runParallel(wl, ws, total, 42, stop)
	if err == nil {
		t.Fatal("terminal failure did not surface")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("error %v does not unwrap to the injected failure", err)
	}
	for i, w := range ws {
		if n := wl.after[w]; n > 1 {
			t.Errorf("terminal %d made %d calls after the failure, want at most 1 (early stop broken)", i, n)
		}
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
			if res.Transactions != failAt-1 {
				t.Errorf("committed %d, want %d", res.Transactions, failAt-1)
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
