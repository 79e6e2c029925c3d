package main

import (
	"math"
	"sort"
)

// sortedQuantile returns the exact q-quantile of ascending samples as
// an order statistic (nearest rank: the smallest value with at least q
// of the samples at or below it); 0 for no samples. No bucketing: the
// value returned is one of the samples.
func sortedQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the two middle values
// for an even count). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max − min) / median of vs, the run-to-run spread the
// regression bounds are calibrated against; 0 when the median is 0.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / math.Abs(m)
}

// meanInt is the arithmetic mean of samples.
func meanInt(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum int64
	for _, v := range samples {
		sum += v
	}
	return float64(sum) / float64(len(samples))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
