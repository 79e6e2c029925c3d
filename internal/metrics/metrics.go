// Package metrics provides the measurement primitives the experiment
// harness reports: exact integer histograms (update-size distributions,
// Table 1/11 and Figures 7-10), CDF extraction, and latency recorders for
// I/O response times.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Hist is an exact histogram over small non-negative integers (update
// sizes in bytes). Values above the cap are clamped into the overflow
// bucket. Safe for concurrent use and lock-free: every field is an
// atomic counter, so a reader that overlaps an Add may see that
// observation in one field and not yet in another; with no Add in flight
// every read is exact.
type Hist struct {
	counts []atomic.Uint64
	over   atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
}

// NewHist creates a histogram covering values 0..max.
func NewHist(max int) *Hist {
	if max < 1 {
		max = 1
	}
	return &Hist{counts: make([]atomic.Uint64, max+1)}
}

// Add records one observation.
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
	}
	h.total.Add(1)
	h.sum.Add(uint64(v))
	if v >= len(h.counts) {
		h.over.Add(1)
		return
	}
	h.counts[v].Add(1)
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.total.Load() }

// Mean returns the average observation.
func (h *Hist) Mean() float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(total)
}

// FractionLE returns the fraction of observations ≤ v — the paper's
// "≤ 3 bytes lies at the 55th percentile" reads as FractionLE(3) = 0.55.
func (h *Hist) FractionLE(v int) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if v >= len(h.counts) {
		return 1
	}
	var c uint64
	for i := 0; i <= v; i++ {
		c += h.counts[i].Load()
	}
	return float64(c) / float64(total)
}

// PercentileLE returns FractionLE scaled to a percentile (0-100).
func (h *Hist) PercentileLE(v int) float64 { return 100 * h.FractionLE(v) }

// Quantile returns the smallest value v with FractionLE(v) ≥ q
// (0 < q ≤ 1). The overflow bucket reports as the cap.
func (h *Hist) Quantile(q float64) int {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need == 0 {
		need = 1
	}
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		if c >= need {
			return i
		}
	}
	return len(h.counts) - 1
}

// CDF evaluates FractionLE at each of the given points.
func (h *Hist) CDF(points []int) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = h.FractionLE(p)
	}
	return out
}

// Reset clears all observations.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.over.Store(0)
	h.total.Store(0)
	h.sum.Store(0)
}

// Latency records durations with exact mean/min/max and approximate
// quantiles via power-of-two bucketing. Safe for concurrent use and
// lock-free, with the same caveat as Hist: a read that overlaps an Add
// may count it in one field and not yet in another.
type Latency struct {
	sum     atomic.Int64
	minP1   atomic.Int64 // smallest observation plus one; 0 = none yet
	max     atomic.Int64
	buckets [64]atomic.Uint64 // bucket i holds durations in [2^i, 2^(i+1)) ns
}

// Add records one duration.
func (l *Latency) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.observeMin(int64(d))
	l.observeMax(int64(d))
	l.sum.Add(int64(d))
	l.buckets[bucketOf(d)].Add(1)
}

func (l *Latency) observeMin(n int64) {
	for {
		cur := l.minP1.Load()
		if cur != 0 && cur-1 <= n || l.minP1.CompareAndSwap(cur, n+1) {
			return
		}
	}
}

func (l *Latency) observeMax(n int64) {
	for {
		cur := l.max.Load()
		if cur >= n || l.max.CompareAndSwap(cur, n) {
			return
		}
	}
}

// bucketOf is floor(log2(d)), with 0 and 1 ns sharing bucket 0.
func bucketOf(d time.Duration) int {
	if d <= 1 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// Count returns the number of observations.
func (l *Latency) Count() uint64 {
	_, n := l.loadBuckets()
	return n
}

// Mean returns the average duration.
func (l *Latency) Mean() time.Duration {
	n := l.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(l.sum.Load()) / time.Duration(n)
}

// Min returns the smallest observation.
func (l *Latency) Min() time.Duration {
	if m := l.minP1.Load(); m != 0 {
		return time.Duration(m - 1)
	}
	return 0
}

// Max returns the largest observation.
func (l *Latency) Max() time.Duration { return time.Duration(l.max.Load()) }

// loadBuckets copies the histogram out and returns how many observations
// it holds. There is no separate counter: a count and the quantiles taken
// against it always come from one copy.
func (l *Latency) loadBuckets() (b [64]uint64, n uint64) {
	for i := range l.buckets {
		b[i] = l.buckets[i].Load()
		n += b[i]
	}
	return b, n
}

// Quantile returns an upper bound of the q-quantile (bucket upper edge).
func (l *Latency) Quantile(q float64) time.Duration {
	b, n := l.loadBuckets()
	return quantileOf(&b, n, q, l.Max())
}

func quantileOf(buckets *[64]uint64, count uint64, q float64, max time.Duration) time.Duration {
	if count == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(count)))
	if need == 0 {
		need = 1
	}
	var c uint64
	for i, n := range buckets {
		c += n
		if c >= need {
			return time.Duration(int64(1) << uint(i+1))
		}
	}
	return max
}

// LatencySnapshot is an exported, JSON-marshalable view of a Latency
// recorder — what the network service's admin endpoint serves per
// protocol op. Quantiles are bucket upper bounds, like Quantile.
type LatencySnapshot struct {
	Count   uint64   `json:"count"`
	MeanNs  int64    `json:"mean_ns"`
	MinNs   int64    `json:"min_ns"`
	MaxNs   int64    `json:"max_ns"`
	P50Ns   int64    `json:"p50_ns"`
	P95Ns   int64    `json:"p95_ns"`
	P99Ns   int64    `json:"p99_ns"`
	Buckets []uint64 `json:"buckets"` // power-of-two histogram, trimmed of trailing zeros
}

// Snapshot captures the recorder's current state. Count and the
// quantiles are those of the bucket copy it returns.
func (l *Latency) Snapshot() LatencySnapshot {
	b, n := l.loadBuckets()
	s := LatencySnapshot{
		Count: n,
		MinNs: int64(l.Min()),
		MaxNs: int64(l.Max()),
	}
	if n > 0 {
		s.MeanNs = l.sum.Load() / int64(n)
	}
	s.P50Ns = int64(quantileOf(&b, n, 0.50, l.Max()))
	s.P95Ns = int64(quantileOf(&b, n, 0.95, l.Max()))
	s.P99Ns = int64(quantileOf(&b, n, 0.99, l.Max()))
	last := -1
	for i, c := range b {
		if c != 0 {
			last = i
		}
	}
	s.Buckets = append([]uint64(nil), b[:last+1]...)
	return s
}

// Merge folds another recorder's observations into l. Benchmarks give
// each worker its own recorder (nothing shared on the timed path) and
// merge afterwards.
func (l *Latency) Merge(o *Latency) {
	b, n := o.loadBuckets()
	if n == 0 {
		return
	}
	l.observeMin(int64(o.Min()))
	l.observeMax(int64(o.Max()))
	for i, c := range b {
		l.buckets[i].Add(c)
	}
	l.sum.Add(o.sum.Load())
}

// Reset clears all observations.
func (l *Latency) Reset() {
	l.sum.Store(0)
	l.minP1.Store(0)
	l.max.Store(0)
	for i := range l.buckets {
		l.buckets[i].Store(0)
	}
}

// Series is a labelled sequence of (x, y) points used by the figure
// harness to print CDFs and sweeps the way the paper plots them.
type Series struct {
	Label  string
	X      []float64
	Y      []float64
	XLabel string
	YLabel string
}

// Render prints the series as aligned columns.
func (s Series) Render() string {
	out := fmt.Sprintf("# %s  (%s vs %s)\n", s.Label, s.XLabel, s.YLabel)
	for i := range s.X {
		out += fmt.Sprintf("%12.2f %12.4f\n", s.X[i], s.Y[i])
	}
	return out
}

// SortedKeys returns the sorted keys of a map with int keys — a small
// helper for deterministic table printing.
func SortedKeys[M ~map[int]V, V any](m M) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
