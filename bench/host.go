package main

import (
	"sync"
	"time"
)

// Host speed. The sandbox this benchmark runs on is shared: within
// seconds and over minutes its memory system gets up to a third faster
// or slower as neighbours come and go, and every wall-clock metric of a
// CPU-bound workload moves with it. So each client interleaves its
// transactions with short bursts of a fixed reference kernel —
// dependent random loads and 4 KiB page copies over a table far larger
// than any cache — every refEvery of wall time, on the goroutine and at
// the moment the workload runs. The bursts are outside every timed
// transaction and their time is taken out of the phase. The median
// burst rate of a window of the phase is the host's speed then, and the
// wall-clock end-to-end metrics are reported at the reference speed:
// times are multiplied by the speed, rates divided by it.
// The kernel shares no code with the program under test, so it cannot
// cancel a real gain or loss.

const (
	refTableWords = 32 << 20 // ×4 bytes = 128 MiB
	refPageWords  = 1024     // a 4 KiB page
	refBurstIters = 512      // ≈150 µs
	refEvery      = 10 * time.Millisecond
	// refNominalRate is the kernel's iterations per second within a burst
	// on the box the baseline was recorded on; speed 1 is "as fast as
	// that".
	refNominalRate = 1.7e6
)

var (
	refTable     []uint32
	refTableOnce sync.Once
)

// refKernel is one goroutine's reference kernel state.
type refKernel struct {
	p     uint32
	page  [refPageWords]uint32
	rates []float64 // iterations per second of every burst
	spent time.Duration
}

func newRefKernel(stream int) *refKernel {
	refTableOnce.Do(func() {
		// next = a·i + c mod 2^k with a ≡ 1 (mod 4) and c odd visits every
		// slot once per cycle, in an order no prefetcher follows.
		refTable = make([]uint32, refTableWords)
		for i := range refTable {
			refTable[i] = (uint32(i)*1664525 + 1013904223) & (refTableWords - 1)
		}
	})
	return &refKernel{p: uint32(stream+1) * 7919}
}

// burst runs the kernel once, starting at start, records its rate and
// returns when it ended.
func (k *refKernel) burst(start time.Time) time.Time {
	p := k.p
	for i := 0; i < refBurstIters; i++ {
		p = refTable[p]
		base := p &^ (refPageWords - 1)
		copy(k.page[:], refTable[base:base+refPageWords])
		p ^= k.page[p&(refPageWords-1)] & 1 // keeps the copy live
	}
	k.p = p
	end := time.Now()
	d := end.Sub(start)
	k.rates = append(k.rates, refBurstIters/d.Seconds())
	k.spent += d
	return end
}

func (k *refKernel) reset() {
	k.rates, k.spent = k.rates[:0], 0
}

// hostSpeed is the median of the burst rates relative to the nominal
// rate (the median ignores the bursts the OS preempted); 1 for none.
func hostSpeed(rates []float64) float64 {
	if len(rates) == 0 {
		return 1
	}
	return median(rates) / refNominalRate
}
