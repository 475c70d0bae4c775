package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (0 for no
// samples). Failed operations enter latency samples as +Inf, so they
// count as missing every latency limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based index of the nearest-rank q-quantile of n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples ranked above the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tailQuantiles are the tail percentiles the rule chooses from.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// tailQuantile applies the tail rule: the highest percentile with at
// least 10 samples beyond it, or 0.5 when even p90 has fewer.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// median is percentile 0.5 over finite values; used for repeated
// set-up and replay timings.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio divides, reading an empty base as 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
