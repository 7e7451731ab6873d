package dataflow_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/workload"
)

// freshMix returns n jobs of the default serving mix, none of them resolved.
func freshMix(n int) []*dataflow.Job {
	mix := workload.NewMix(workload.MixConfig{Seed: 42})
	jobs := make([]*dataflow.Job, n)
	for i := range jobs {
		jobs[i] = mix.Next()
	}
	return jobs
}

// validateAllocs returns the mean allocations of a job's first Validate over
// the jobs each call of fresh builds: the least of three calls, as the runtime
// now and then allocates for itself while the jobs are validated.
func validateAllocs(t *testing.T, fresh func() []*dataflow.Job) float64 {
	t.Helper()
	least := math.Inf(1)
	for range 3 {
		jobs := fresh()
		var before, after runtime.MemStats
		// A collection first: the runtime's first one starts its workers,
		// which allocate, and the jobs' construction is the likeliest to
		// trigger it.
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(len(jobs)))
	}
	return least
}

// TestAllocBudgetFreshJob pins what a job's graph costs the first time it is
// resolved. A fresh job of the serving mix — what a third of serve_paced's
// submissions and all of cmd/loadgen's are — takes four allocations: the memo
// holding its graph, Order, the graph's []int32 block and its output names;
// resolve's working arrays are on its stack. A window built along the
// template's shape takes one, the memo, whose graph shares the shape's blocks.
// Measured 4.00 and 1; 8.05 and 2 with the graph allocated apart from its memo
// and the working arrays made one by one.
func TestAllocBudgetFreshJob(t *testing.T) {
	if got := validateAllocs(t, func() []*dataflow.Job { return freshMix(2048) }); got > 4 {
		t.Errorf("a fresh mix job's first Validate allocates %.4f, budget 4", got)
	}

	src := workload.StreamWindow(workload.DefaultStream(), 0)
	tmpl := &dataflow.Template{Name: "w/%d", Build: replay(src)}
	first, err := tmpl.Instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := first.Graph()
	var windows []*dataflow.Job
	alongShape := func() []*dataflow.Job {
		windows = make([]*dataflow.Job, 256)
		for i := range windows {
			windows[i] = dataflow.AlongShape(fmt.Sprintf("w/%d", i+1), shape)
			if err := replay(src)(windows[i], i+1); err != nil {
				t.Fatal(err)
			}
		}
		return windows
	}
	if got := validateAllocs(t, alongShape); got > 1 {
		t.Errorf("a window built along its shape allocates %.4f in its first Validate, budget 1", got)
	}
	for _, w := range windows {
		if g, _ := w.Graph(); !g.SharesShape(shape) {
			t.Fatalf("%s was not resolved along the shape", w.Name())
		}
	}
}

// BenchmarkResolveFreshJob is the first Validate of a fresh job of the serving
// mix: the graph resolution every new submission pays once. The jobs are built
// before the clock starts, so an operation is the resolution alone. The
// bench-smoke row gating it lets ns/op grow by no more than double and
// allocs/op not at all.
func BenchmarkResolveFreshJob(b *testing.B) {
	jobs := freshMix(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
