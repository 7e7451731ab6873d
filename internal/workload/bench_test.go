package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
)

// Per-workload benchmarks: wall-clock ns/op measures the simulator; the
// interesting output is B/op (the engine's allocation footprint per run).

func benchJob(b *testing.B, mk func() *dataflow.Job) {
	b.Helper()
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(mk()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rt.Regions().Live() != 0 {
		b.Fatalf("leaked %d regions", rt.Regions().Live())
	}
}

func BenchmarkWorkloadHospital(b *testing.B) {
	cfg := DefaultHospital()
	benchJob(b, func() *dataflow.Job { return Hospital(cfg) })
}

func BenchmarkWorkloadDBMS(b *testing.B) {
	cfg := DefaultDBMS()
	benchJob(b, func() *dataflow.Job { return DBMS(cfg) })
}

func BenchmarkWorkloadML(b *testing.B) {
	cfg := DefaultML()
	benchJob(b, func() *dataflow.Job { return ML(cfg) })
}

func BenchmarkWorkloadHPC(b *testing.B) {
	cfg := DefaultHPC()
	benchJob(b, func() *dataflow.Job { return HPC(cfg) })
}

func BenchmarkWorkloadStreamWindow(b *testing.B) {
	cfg := DefaultStream()
	benchJob(b, func() *dataflow.Job { return StreamWindow(cfg, 0) })
}

func BenchmarkWorkloadGraph(b *testing.B) {
	cfg := DefaultGraph()
	benchJob(b, func() *dataflow.Job { return Graph(cfg) })
}
