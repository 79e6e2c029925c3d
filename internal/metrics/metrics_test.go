package metrics

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistBasics(t *testing.T) {
	h := NewHist(100)
	for _, v := range []int{1, 2, 2, 3, 10} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 18.0/5 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if got := h.FractionLE(2); got != 0.6 {
		t.Errorf("FractionLE(2) = %v", got)
	}
	if got := h.PercentileLE(3); got != 80 {
		t.Errorf("PercentileLE(3) = %v", got)
	}
	if got := h.FractionLE(1000); got != 1 {
		t.Errorf("FractionLE(max) = %v", got)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %d", q)
	}
	if q := h.Quantile(1.0); q != 10 {
		t.Errorf("Quantile(1.0) = %d", q)
	}
	if got := h.FractionLE(1); got != 0.2 {
		t.Errorf("FractionLE(1) = %v", got)
	}
	if got := h.FractionLE(3); got != 0.8 {
		t.Errorf("FractionLE(3) = %v", got)
	}
	h.Reset()
	if h.Count() != 0 || h.FractionLE(5) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHistOverflowAndNegative(t *testing.T) {
	h := NewHist(4)
	h.Add(100) // overflow bucket
	h.Add(-3)  // clamped to 0
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.FractionLE(4) != 0.5 {
		t.Errorf("FractionLE(4) = %v", h.FractionLE(4))
	}
	if h.FractionLE(0) != 0.5 {
		t.Errorf("FractionLE(0) = %v", h.FractionLE(0))
	}
}

func TestEmptyHist(t *testing.T) {
	h := NewHist(10)
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.FractionLE(3) != 0 {
		t.Error("empty histogram not all-zero")
	}
}

func TestLatencyBasics(t *testing.T) {
	var l Latency
	l.Add(10 * time.Microsecond)
	l.Add(20 * time.Microsecond)
	l.Add(30 * time.Microsecond)
	if l.Count() != 3 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Mean() != 20*time.Microsecond {
		t.Errorf("Mean = %v", l.Mean())
	}
	if l.Min() != 10*time.Microsecond || l.Max() != 30*time.Microsecond {
		t.Errorf("min/max = %v/%v", l.Min(), l.Max())
	}
	q := l.Quantile(0.99)
	if q < 30*time.Microsecond || q > 128*time.Microsecond {
		t.Errorf("Quantile(0.99) = %v out of plausible bucket range", q)
	}
	l.Reset()
	if l.Count() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestLatencyEmptyAndNegative(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Quantile(0.5) != 0 {
		t.Error("empty latency not zero")
	}
	l.Add(-5)
	if l.Min() != 0 {
		t.Errorf("negative clamped Min = %v", l.Min())
	}
}

// Property: Quantile agrees with a sort-based reference on random data.
func TestPropertyHistQuantile(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		h := NewHist(256)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(256)
			h.Add(vals[i])
		}
		sort.Ints(vals)
		for _, q := range []float64{0.1, 0.5, 0.9, 1.0} {
			idx := int(q*float64(n)) - 1
			if idx < 0 {
				idx = 0
			}
			want := vals[idx]
			// Reference: smallest v with count(≤v) ≥ ceil(q·n).
			if got := h.Quantile(q); got != want {
				// ceil vs floor edge: recompute exactly.
				need := int(float64(n)*q + 0.9999999)
				c := 0
				ref := vals[n-1]
				for _, v := range vals {
					c++
					if c >= need {
						ref = v
						break
					}
				}
				if got != ref {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FractionLE is monotonically non-decreasing.
func TestPropertyFractionMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHist(255)
		for _, v := range vals {
			h.Add(int(v))
		}
		prev := -1.0
		for v := 0; v <= 255; v += 17 {
			cur := h.FractionLE(v)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencySnapshot(t *testing.T) {
	var l Latency
	if s := l.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 || s.P99Ns != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for _, d := range []time.Duration{100, 200, 400, 800, 100_000} {
		l.Add(d)
	}
	s := l.Snapshot()
	if s.Count != 5 || s.MinNs != 100 || s.MaxNs != 100_000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.MeanNs != int64(l.Mean()) {
		t.Fatalf("mean %d != %v", s.MeanNs, l.Mean())
	}
	// Quantiles must agree with the recorder's own bucket upper bounds.
	if s.P50Ns != int64(l.Quantile(0.50)) || s.P99Ns != int64(l.Quantile(0.99)) {
		t.Fatalf("quantiles diverge: %+v vs %v/%v", s, l.Quantile(0.50), l.Quantile(0.99))
	}
	if len(s.Buckets) == 0 {
		t.Fatal("histogram empty after observations")
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != 5 {
		t.Fatalf("bucket mass %d != count 5", total)
	}
	// The snapshot is a copy: mutating the recorder afterwards must not
	// change it.
	l.Add(1 << 30)
	if s.Count != 5 {
		t.Fatal("snapshot aliases the recorder")
	}
	// And it must round-trip through JSON (the admin endpoint contract).
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencySnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != s.Count || back.P99Ns != s.P99Ns || len(back.Buckets) != len(s.Buckets) {
		t.Fatalf("JSON round trip lost data: %+v vs %+v", back, s)
	}
}

// Add takes no lock: goroutines recording into one Latency and one Hist
// at once lose nothing, every snapshot taken meanwhile agrees with
// itself (its count is its bucket mass, its quantiles lie within its
// min and max bucket), and bucketOf still files a duration under
// floor(log2).
func TestConcurrentAddLosesNothing(t *testing.T) {
	for d, want := range map[time.Duration]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10, 1<<62 + 1: 62} {
		if got := bucketOf(d); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", d, got, want)
		}
	}
	const workers, each = 4, 20000
	var l Latency
	h := NewHist(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := l.Snapshot()
			var mass uint64
			for _, n := range s.Buckets {
				mass += n
			}
			if mass != s.Count {
				t.Errorf("snapshot count %d, bucket mass %d", s.Count, mass)
				return
			}
			if s.Count > 0 && (s.P50Ns > s.P99Ns || s.P99Ns > 2*int64(workers*each)) {
				t.Errorf("snapshot quantiles out of order or range: %+v", s)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := w*each + i + 1 // every value from 1 to workers*each, once
				l.Add(time.Duration(v))
				h.Add(v % 70) // 64..69 overflow
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	const n = workers * each
	if l.Count() != n || l.Min() != 1 || l.Max() != n || l.Mean() != time.Duration((n+1)/2) {
		t.Errorf("latency: count %d min %v max %v mean %v; want %d, 1, %d, %d",
			l.Count(), l.Min(), l.Max(), l.Mean(), n, n, (n+1)/2)
	}
	if h.Count() != n {
		t.Errorf("hist: count %d, want %d", h.Count(), n)
	}
	var mass uint64
	for v := 0; v <= 64; v++ {
		mass = uint64(h.FractionLE(v)*float64(n) + 0.5)
	}
	if over := uint64(n) - mass; over != h.over.Load() || over == 0 {
		t.Errorf("hist: %d observations above the cap by the CDF, %d in the overflow bucket", over, h.over.Load())
	}
}
