package dataflow_test

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/workload"
)

// BenchmarkResolveFreshJob is the first Validate of a fresh job of the serving
// mix: the graph resolution every new submission pays once. The jobs are built
// before the clock starts, so an operation is the resolution alone. The
// bench-smoke row gating it lets ns/op grow by no more than double and
// allocs/op not at all.
func BenchmarkResolveFreshJob(b *testing.B) {
	mix := workload.NewMix(workload.MixConfig{Seed: 42})
	jobs := make([]*dataflow.Job, b.N)
	for i := range jobs {
		jobs[i] = mix.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
