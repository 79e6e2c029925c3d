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
//
// A worker's operation writes no memory another worker writes, short of
// the resource it queues on and of a stripe two workers share when there
// are more workers than stripes: a worker's clock sits on cache lines of
// its own, the timeline's horizon is computed when asked rather than
// maintained, and Striped gives every other per-operation counter one
// cell per worker stripe.
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
// with each other.
//
// The horizon — the latest instant anything reached — is not kept as one
// value every operation raises. It is the maximum of the resources' busy
// horizons, which only grow, and of the clocks workers moved by Compute
// or SetNow, kept per worker stripe; Horizon takes that maximum when
// asked, exactly.
type Timeline struct {
	res  []resource
	peak Striped[atomic.Int64] // per stripe: the latest clock Compute or SetNow set
}

// NewTimeline creates a timeline for n resources, all idle at time 0.
func NewTimeline(n int) *Timeline {
	return &Timeline{res: make([]resource, n)}
}

// Resources returns the number of resources managed by the timeline.
func (tl *Timeline) Resources() int { return len(tl.res) }

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
	return start, end
}

// BusyUntil reports the instant resource r becomes idle.
func (tl *Timeline) BusyUntil(r int) Time {
	res := &tl.res[r]
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.busy
}

// Horizon is the latest instant scheduled or reached so far — the total
// simulated elapsed time of the run: the latest completion on any
// resource or the latest clock a worker moved to by itself.
func (tl *Timeline) Horizon() Time {
	var h Time
	for r := range tl.res {
		h = max(h, tl.BusyUntil(r))
	}
	for i := range Stripes {
		h = max(h, Time(tl.peak.At(i).Load()))
	}
	return h
}

// raise lifts w's stripe of the horizon to t.
func (tl *Timeline) raise(w *Worker, t Time) {
	p := tl.peak.Of(w)
	for {
		cur := p.Load()
		if int64(t) <= cur || p.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Worker is one logical thread of execution in simulated time (a database
// terminal, a cleaner, the garbage collector). A worker normally belongs
// to a single goroutine, but its clock is mutex-protected so shared
// helper workers (the buffer cleaner, the checkpointer) can be charged
// from whichever goroutine triggers them.
//
// A Worker is 128 bytes, an allocation size class the runtime places on
// 128-byte boundaries, so two workers allocated one after the other (two
// clients' terminals) never share a cache line.
type Worker struct {
	tl     *Timeline
	mu     sync.Mutex
	now    Time
	stripe int
	_      [128 - 32]byte
}

// NewWorker creates a worker at simulated time 0 on the given timeline.
func (tl *Timeline) NewWorker() *Worker {
	return &Worker{tl: tl, stripe: int(nextStripe.Add(1) % Stripes)}
}

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
	w.tl.raise(w, now)
}

// Compute advances the worker's clock by pure CPU time.
func (w *Worker) Compute(d Duration) {
	w.mu.Lock()
	w.now += Time(d)
	now := w.now
	w.mu.Unlock()
	w.tl.raise(w, now)
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
