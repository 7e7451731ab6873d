package workload

import (
	"testing"

	"repro/internal/dataflow"
)

// TestMixDeterministic: the same seed must yield the same job stream —
// names, shapes, task counts — which is what the load harness's replayed
// admission decisions rest on.
func TestMixDeterministic(t *testing.T) {
	draw := func() []string {
		m := NewMix(MixConfig{Seed: 1234})
		var names []string
		for i := 0; i < 200; i++ {
			j := m.Next()
			names = append(names, j.Name())
			if err := j.Validate(); err != nil {
				t.Fatalf("draw %d (%s): %v", i, j.Name(), err)
			}
		}
		return names
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across replays: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestMixSeedsDiffer: different seeds should not produce the same stream.
func TestMixSeedsDiffer(t *testing.T) {
	a, b := NewMix(MixConfig{Seed: 1}), NewMix(MixConfig{Seed: 2})
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next().Name() == b.Next().Name() {
			same++
		}
	}
	if same == 100 {
		t.Error("seeds 1 and 2 produced identical 100-job streams")
	}
}

// TestMixRealFraction pins the RealFraction knob: negative disables real
// jobs, 1 yields only real jobs.
func TestMixRealFraction(t *testing.T) {
	isReal := func(j *dataflow.Job) bool {
		n := j.Name()
		return n == "graph-bfs" || n == "dbms" || len(n) < 3 || n[:3] != "mix"
	}
	synth := NewMix(MixConfig{Seed: 9, RealFraction: -1})
	for i := 0; i < 150; i++ {
		if j := synth.Next(); isReal(j) {
			t.Fatalf("RealFraction -1 produced real job %s", j.Name())
		}
	}
	real := NewMix(MixConfig{Seed: 9, RealFraction: 1})
	for i := 0; i < 50; i++ {
		if j := real.Next(); !isReal(j) {
			t.Fatalf("RealFraction 1 produced synthetic job %s", j.Name())
		}
	}
}

// TestMixHeavyTail: the bounded Pareto size draw must put most jobs near
// the minimum with a real tail toward mixMaxScale.
func TestMixHeavyTail(t *testing.T) {
	m := NewMix(MixConfig{Seed: 5})
	small, large := 0, 0
	for i := 0; i < 5000; i++ {
		s := m.pareto()
		if s < 1 || s > mixMaxScale {
			t.Fatalf("size draw %g outside [1, %d]", s, mixMaxScale)
		}
		if s < 2 {
			small++
		}
		if s > 16 {
			large++
		}
	}
	if small < 2500 {
		t.Errorf("only %d/5000 draws below 2x base — tail too heavy", small)
	}
	if large == 0 {
		t.Error("no draws above 16x base — tail missing entirely")
	}
}
