// Package workload provides faithful-profile drivers for the benchmarks
// the paper evaluates: TPC-B, TPC-C, TATP and a LinkBench-style social
// graph workload (Sec. 8.2 / Appendix A). The drivers reproduce the
// schemas, transaction mixes, access skew and — critically — the
// update-size behaviour (which fields of which width change per
// transaction) that the [N×M] scheme exploits.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/metrics"
	"ipa/internal/sim"
)

// Workload is a loadable, runnable benchmark.
type Workload interface {
	// Name of the benchmark ("TPC-B", ...).
	Name() string
	// Load populates the database (run once, before measurement).
	Load(w *sim.Worker) error
	// RunOne executes one transaction of the benchmark mix using the
	// given terminal worker and RNG, returning the transaction type.
	RunOne(w *sim.Worker, rng *rand.Rand) (string, error)
}

// TxCPUTime is the simulated CPU cost charged per transaction, making
// throughput finite when everything hits the buffer pool.
const TxCPUTime = 50 * time.Microsecond

// Results summarises a measured run.
type Results struct {
	Workload     string
	Transactions uint64
	SimSeconds   float64
	Throughput   float64 // transactions per simulated second
	TxLatency    *metrics.Latency
	PerType      map[string]*metrics.Latency
}

// RunForDuration executes transactions round-robin until every
// terminal's simulated clock has advanced by at least dur — the paper's
// measurement mode: a fixed wall-clock interval, so faster configurations
// execute *more* transactions (and issue more host I/Os), exactly how
// Tables 6-10 report throughput next to absolute I/O counts.
func RunForDuration(wl Workload, terminals []*sim.Worker, dur time.Duration, seed int64) (Results, error) {
	const hardCap = 10_000_000 // runaway guard
	return runSerial(wl, terminals, seed, hardCap, dur)
}

// Run executes txTotal transactions spread over the given terminal
// workers, round-robin, measuring simulated latency per transaction.
// Terminals interleave in simulated time through chip queueing even
// though execution here is sequential and deterministic.
func Run(wl Workload, terminals []*sim.Worker, txTotal int, seed int64) (Results, error) {
	const noDeadline = time.Duration(1 << 62)
	return runSerial(wl, terminals, seed, txTotal, noDeadline)
}

// runSerial is the one serial driver loop: step i belongs to terminal
// i mod n, and the run ends after steps steps or once every terminal's
// clock is dur past the start, whichever comes first. A terminal past
// the deadline sits its steps out.
func runSerial(wl Workload, terminals []*sim.Worker, seed int64, steps int, dur time.Duration) (Results, error) {
	res, start, err := newResults(wl, terminals)
	if err != nil {
		return res, err
	}
	rngs := make([]*rand.Rand, len(terminals))
	for i := range rngs {
		rngs[i] = terminalRNG(seed, i)
	}
	deadline := start + sim.Time(dur)
	for i := 0; i < steps; i++ {
		t := i % len(terminals)
		w := terminals[t]
		if w.Now() >= deadline {
			if earliest(terminals) >= deadline {
				break
			}
			continue
		}
		before := w.Now()
		w.Compute(TxCPUTime)
		name, err := wl.RunOne(w, rngs[t])
		if err != nil {
			// One goroutine steps every terminal, so no transaction can
			// lose a lock race: an error here is a failure of the stack
			// (flash full, a corrupted page), not an abort to count.
			return res, fmt.Errorf("workload: terminal %d, step %d: %w", t, i, err)
		}
		lat := time.Duration(w.Now() - before)
		res.Transactions++
		res.TxLatency.Add(lat)
		pl := res.PerType[name]
		if pl == nil {
			pl = &metrics.Latency{}
			res.PerType[name] = pl
		}
		pl.Add(lat)
	}
	res.finish(terminals, start)
	return res, nil
}

// terminalRNG seeds terminal t's generator, the same way in every
// driver, so a terminal draws the same transactions serial or parallel.
func terminalRNG(seed int64, t int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(t)*7919))
}

// newResults starts a measured run: empty results and the start time,
// the clock of the terminal furthest ahead.
func newResults(wl Workload, terminals []*sim.Worker) (Results, sim.Time, error) {
	if len(terminals) == 0 {
		return Results{}, 0, fmt.Errorf("workload: no terminals")
	}
	res := Results{
		Workload:  wl.Name(),
		TxLatency: &metrics.Latency{},
		PerType:   make(map[string]*metrics.Latency),
	}
	return res, latest(terminals), nil
}

// finish closes a run that began at start: the makespan ends at the
// clock of the terminal furthest ahead.
func (res *Results) finish(terminals []*sim.Worker, start sim.Time) {
	res.SimSeconds = (latest(terminals) - start).Seconds()
	if res.SimSeconds > 0 {
		res.Throughput = float64(res.Transactions) / res.SimSeconds
	}
}

func latest(terminals []*sim.Worker) sim.Time {
	var t sim.Time
	for _, w := range terminals {
		if w.Now() > t {
			t = w.Now()
		}
	}
	return t
}

func earliest(terminals []*sim.Worker) sim.Time {
	t := terminals[0].Now()
	for _, w := range terminals[1:] {
		if w.Now() < t {
			t = w.Now()
		}
	}
	return t
}

// NURand is TPC-C's non-uniform random function NURand(A, x, y).
func NURand(rng *rand.Rand, a, x, y int) int {
	c := a / 2
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// Zipf draws from [0, n) with the given skew (s > 1 steeper).
type Zipf struct{ z *rand.Zipf }

// NewZipf builds a Zipf generator over [0, n).
func NewZipf(rng *rand.Rand, s float64, n uint64) *Zipf {
	if s <= 1 {
		s = 1.01
	}
	return &Zipf{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Next draws a value.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// simNow returns the worker's simulated clock (0 for untimed runs).
func simNow(w *sim.Worker) uint64 {
	if w == nil {
		return 0
	}
	return uint64(w.Now())
}

// insertRow is a helper: single-tuple insert in its own transaction
// during load phases.
func insertRow(db *engine.DB, w *sim.Worker, t *engine.Table, tup []byte) (core.RID, error) {
	tx, err := db.Begin(w)
	if err != nil {
		return core.RID{}, err
	}
	r, err := t.Insert(tx, tup)
	if err != nil {
		tx.Abort()
		return core.RID{}, err
	}
	if err := tx.Commit(); err != nil {
		return core.RID{}, err
	}
	return r, nil
}
