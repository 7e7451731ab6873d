package main

import (
	"math"
	"sort"
)

// median returns the median of vs; vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// percentile returns the smallest sample with at least a share p of the
// samples at or below it; sorted must be ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailPercentiles are the tails a latency report may quote, highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// supportedTail picks the highest percentile that still has at least ten
// of the n samples beyond it, and says how many that is. A tail resolved
// by fewer samples is an anecdote; with n < 100 there is none to quote
// and ok is false.
func supportedTail(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		if b := n - int(math.Ceil(p*float64(n))); b >= 10 {
			return p, b, true
		}
	}
	return 0, 0, false
}

// quartiles returns the three quartiles of vs the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is what
// the acceptance check of the harness computes. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := max(1, min(int(math.Floor(pos)), len(s)-1))
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the first and the third quartile as a
// share of the median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
