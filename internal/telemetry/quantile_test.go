package telemetry

import (
	"math/rand"
	"testing"
	"time"
)

// TestQuantileMonotoneProperty is the audit the interpolation clamp (PR 3)
// called for: over random observation sets, Quantile(p) ≤ Quantile(q) must
// hold for every p ≤ q — non-monotonic estimates would make reported p50 >
// p99 possible at bucket boundaries. The estimator passes because the
// selected bucket index is non-decreasing in q, the within-bucket
// interpolation increases with the target rank, and the final max-clamp can
// only engage in the topmost non-empty bucket (min with a constant is
// monotone). This test keeps that invariant pinned.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.5000001, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for trial := 0; trial < 300; trial++ {
		h := &Histogram{bounds: latencyBounds}
		n := rng.Intn(60) + 1
		for i := 0; i < n; i++ {
			// Span below the first bound, across every bucket, and past the
			// last bound into the +Inf tail bucket.
			h.Observe(time.Duration(rng.Int63n(int64(30 * time.Millisecond))))
		}
		qs := append([]float64(nil), grid...)
		for i := 0; i < 20; i++ {
			qs = append(qs, rng.Float64())
		}
		prev, prevQ := time.Duration(-1), -1.0
		for _, q := range sortedFloats(qs) {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("trial %d: Quantile not monotone: Q(%v)=%v < Q(%v)=%v (n=%d)",
					trial, q, v, prevQ, prev, n)
			}
			prev, prevQ = v, q
		}
		if max := h.Max(); h.Quantile(1) != max {
			t.Fatalf("trial %d: Quantile(1)=%v, want max %v", trial, h.Quantile(1), max)
		}
	}
}

func sortedFloats(xs []float64) []float64 {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}
