package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 0.9, 90, true}, // 10 beyond
		{99, 0.9, 0, false},  // 9 beyond
		{20, 0.5, 10, true},  // 10 beyond
		{19, 0.5, 0, false},  // 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{1, 0.5, 0, false},
	} {
		got, ok := percentile(sample(c.n), c.p)
		if ok != c.wantOK || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
}
