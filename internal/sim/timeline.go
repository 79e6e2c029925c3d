// Package sim provides the virtual time base of the flash emulator: a
// discrete-event timeline with per-resource FIFO queueing. I/O latencies
// and transactional throughput in the experiments are derived from this
// simulated time, never from wall-clock time, so every run is
// deterministic and independent of host speed.
//
// The model is the classic trace-driven queueing simulation: each worker
// (database terminal, background cleaner, garbage collector) carries its
// own current time; shared resources (flash chips, channels) remember
// until when they are busy. An operation issued at time t on resource r
// starts at max(t, busy[r]), occupies the resource for its duration, and
// the issuing worker's clock advances to the completion time.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = time.Duration

// Seconds converts a simulated instant to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

// resource is one busy horizon with its own admission lock, padded so
// adjacent resources never share a cache line: the whole point of
// striping is that 16 chips can admit operations from 16 workers without
// bouncing a shared line between cores.
type resource struct {
	mu   sync.Mutex
	busy Time
	_    [64 - 8 - 8]byte
}

// Timeline tracks the busy horizon of a set of resources. It is safe for
// concurrent use; FIFO admission is serialised *per resource*, so
// operations on different resources (different flash chips) never contend
// with each other. The global horizon is maintained with a lock-free
// atomic max.
type Timeline struct {
	res []resource
	max atomic.Int64
}

// NewTimeline creates a timeline for n resources, all idle at time 0.
func NewTimeline(n int) *Timeline {
	return &Timeline{res: make([]resource, n)}
}

// Resources returns the number of resources managed by the timeline.
func (tl *Timeline) Resources() int { return len(tl.res) }

// advanceMax lifts the horizon to at least t (atomic CAS max).
func (tl *Timeline) advanceMax(t Time) {
	for {
		cur := tl.max.Load()
		if int64(t) <= cur || tl.max.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Acquire schedules an operation of the given duration on resource r,
// issued by a worker whose clock reads now. It returns the start and
// completion instants; the resource is busy until completion.
func (tl *Timeline) Acquire(r int, now Time, d Duration) (start, end Time) {
	if r < 0 || r >= len(tl.res) {
		panic(fmt.Sprintf("sim: resource %d out of range [0,%d)", r, len(tl.res)))
	}
	res := &tl.res[r]
	res.mu.Lock()
	start = now
	if res.busy > start {
		start = res.busy
	}
	end = start + Time(d)
	res.busy = end
	res.mu.Unlock()
	tl.advanceMax(end)
	return start, end
}

// BusyUntil reports the instant resource r becomes idle.
func (tl *Timeline) BusyUntil(r int) Time {
	res := &tl.res[r]
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.busy
}

// Horizon is the latest completion instant scheduled so far — the total
// simulated elapsed time of the run.
func (tl *Timeline) Horizon() Time {
	return Time(tl.max.Load())
}

// Advance moves the horizon forward without occupying a resource, used to
// account for pure CPU time.
func (tl *Timeline) Advance(t Time) {
	tl.advanceMax(t)
}

// Worker is one logical thread of execution in simulated time (a database
// terminal, a cleaner, the garbage collector). A worker normally belongs
// to a single goroutine, but its clock is mutex-protected so shared
// helper workers (the buffer cleaner, the checkpointer) can be charged
// from whichever goroutine triggers them.
type Worker struct {
	tl  *Timeline
	mu  sync.Mutex
	now Time
}

// NewWorker creates a worker at simulated time 0 on the given timeline.
func (tl *Timeline) NewWorker() *Worker { return &Worker{tl: tl} }

// Now returns the worker's current simulated time.
func (w *Worker) Now() Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now
}

// SetNow moves the worker's clock (used when a worker logically waits for
// an event completed by another worker, e.g. a read served from buffer).
func (w *Worker) SetNow(t Time) {
	w.mu.Lock()
	if t > w.now {
		w.now = t
	}
	now := w.now
	w.mu.Unlock()
	w.tl.Advance(now)
}

// Compute advances the worker's clock by pure CPU time.
func (w *Worker) Compute(d Duration) {
	w.mu.Lock()
	w.now += Time(d)
	now := w.now
	w.mu.Unlock()
	w.tl.Advance(now)
}

// Use blocks the worker on resource r for duration d (queueing behind
// earlier users) and returns the operation's total latency as observed by
// the worker, i.e. waiting time plus service time.
func (w *Worker) Use(r int, d Duration) Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, end := w.tl.Acquire(r, w.now, d)
	lat := Duration(end - w.now)
	w.now = end
	return lat
}
