package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile with fewer is a reading of one or two outliers, not of the
// distribution, so it is not reported at all.
const minBeyond = 10

// median returns the middle of a non-empty sample (the mean of the two
// middle values when the count is even).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1) of a sample by the
// nearest-rank method. ok is false when fewer than minBeyond samples lie
// beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
