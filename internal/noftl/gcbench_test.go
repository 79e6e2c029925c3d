package noftl

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"ipa/internal/core"
	"ipa/internal/flash"
	"ipa/internal/metrics"
)

// BenchmarkGCInterference measures the latency a writer observes under
// churn heavy enough to keep the garbage collector permanently busy:
// inline collection, the paper's configuration, where a write at the
// reserve pays for a whole block migration. The reported p99-wall-ns is
// the writers' wall-clock p99 (merged from per-worker recorders so the
// timed path takes no shared lock).
func BenchmarkGCInterference(b *testing.B) {
	const workers = 16
	dev := newDevice(b, flash.SLC, workers, 64, 8, 512)
	r, err := dev.CreateRegion(RegionConfig{
		Name: "bench", Mode: ModeSLC, BlocksPerChip: 64,
		OverProvision: 0.22,
	})
	if err != nil {
		b.Fatal(err)
	}
	capPages := r.LogicalCapacity()
	img := pageOf(dev, 0xAB)
	for i := 0; i < capPages; i++ {
		if err := r.Write(nil, core.PageID(i+1), img, nil); err != nil {
			b.Fatal(err)
		}
	}
	r.ResetStats()

	lats := make([]*metrics.Latency, workers)
	for i := range lats {
		lats[i] = &metrics.Latency{}
	}
	perWorker := capPages / workers
	b.ResetTimer()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k) + 1))
			base := k * perWorker
			n := b.N / workers
			if k < b.N%workers {
				n++
			}
			img := pageOf(dev, byte(k))
			for i := 0; i < n; i++ {
				id := core.PageID(base + rng.Intn(perWorker) + 1)
				t0 := time.Now()
				if err := r.Write(nil, id, img, nil); err != nil {
					b.Error(err)
					return
				}
				lats[k].Add(time.Since(t0))
			}
		}(k)
	}
	wg.Wait()
	b.StopTimer()

	var all metrics.Latency
	for _, l := range lats {
		all.Merge(l)
	}
	s := r.Stats()
	b.ReportMetric(float64(all.Quantile(0.99)), "p99-wall-ns")
	b.ReportMetric(float64(s.GCPageMigrations)/float64(b.N), "migrations/op")
}
