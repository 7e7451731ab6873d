package sched

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/topology"
)

func testbed(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func chainJob(n int, ops float64) *dataflow.Job {
	j := dataflow.NewJob("chain")
	var prev *dataflow.Task
	for i := 0; i < n; i++ {
		t := j.Task(string(rune('a'+i)), dataflow.Props{Ops: ops, OutputBytes: 1 << 20}, nil)
		if prev != nil {
			prev.Then(t)
		}
		prev = t
	}
	return j
}

func fanoutJob(width int, ops float64) *dataflow.Job {
	j := dataflow.NewJob("fanout")
	src := j.Task("src", dataflow.Props{Ops: ops, OutputBytes: 4096}, nil)
	sink := j.Task("sink", dataflow.Props{Ops: ops}, nil)
	for i := 0; i < width; i++ {
		t := j.Task(string(rune('A'+i)), dataflow.Props{Ops: ops * 10, OutputBytes: 4096}, nil)
		src.Then(t)
		t.Then(sink)
	}
	return j
}

// of is Schedule.Of for a task the schedule must hold.
func of(t testing.TB, s *Schedule, task string) Assignment {
	t.Helper()
	a, ok := s.Of(task)
	if !ok {
		t.Fatalf("%s schedule has no assignment for %s", s.Policy, task)
	}
	return a
}

func allSchedulers() []Scheduler {
	return []Scheduler{HEFT{}, FIFO{}, RoundRobin{}}
}

func TestSchedulersProduceValidSchedules(t *testing.T) {
	topo := testbed(t)
	for _, job := range []*dataflow.Job{chainJob(6, 1e6), fanoutJob(8, 1e6)} {
		for _, s := range allSchedulers() {
			sch, err := s.Schedule(job, topo)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.Name(), job.Name(), err)
			}
			if err := Validate(job, topo, sch); err != nil {
				t.Errorf("%s on %s: %v", s.Name(), job.Name(), err)
			}
			if sch.Makespan <= 0 {
				t.Errorf("%s: zero makespan", s.Name())
			}
		}
	}
}

func TestDevicePreferenceRespected(t *testing.T) {
	topo := testbed(t)
	j := dataflow.NewJob("gpu-job")
	j.Task("train", dataflow.Props{Compute: dataflow.OnGPU, Ops: 1e9}, nil)
	j.Task("prep", dataflow.Props{Compute: dataflow.OnCPU, Ops: 1e6}, nil)
	for _, s := range allSchedulers() {
		sch, err := s.Schedule(j, topo)
		if err != nil {
			t.Fatal(err)
		}
		if got := of(t, sch, "train").Compute; got != "node0/gpu0" {
			t.Errorf("%s put the GPU task on %s", s.Name(), got)
		}
		c, _ := topo.Compute(of(t, sch, "prep").Compute)
		if c.Kind != topology.CPU {
			t.Errorf("%s put the CPU task on %s", s.Name(), c.Kind)
		}
	}
}

func TestUnsatisfiablePreference(t *testing.T) {
	topo, err := topology.BuildSingleNode(topology.SingleNodeConfig{WithGPU: false})
	if err != nil {
		t.Fatal(err)
	}
	j := dataflow.NewJob("needs-gpu")
	j.Task("t", dataflow.Props{Compute: dataflow.OnGPU, Ops: 1}, nil)
	for _, s := range allSchedulers() {
		if _, err := s.Schedule(j, topo); !errors.Is(err, ErrNoDevice) {
			t.Errorf("%s: err = %v, want ErrNoDevice", s.Name(), err)
		}
	}
}

func TestHEFTPrefersFastDevices(t *testing.T) {
	// An unconstrained heavy task should land on the fastest device (TPU
	// at 4000 Gops in the testbed).
	topo := testbed(t)
	j := dataflow.NewJob("heavy")
	j.Task("crunch", dataflow.Props{Ops: 1e12}, nil)
	sch, err := HEFT{}.Schedule(j, topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := of(t, sch, "crunch").Compute; got != "node0/tpu0" {
		t.Errorf("HEFT put the heavy task on %s, want the TPU", got)
	}
}

func TestHEFTBeatsBaselinesOnHeterogeneousMix(t *testing.T) {
	// A wide fan-out of heavy unconstrained tasks: HEFT load-balances onto
	// the fast accelerators; FIFO piles everything onto the first device.
	topo := testbed(t)
	job := fanoutJob(24, 1e8)
	heft, err := HEFT{}.Schedule(job, topo)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := FIFO{}.Schedule(job, topo)
	if err != nil {
		t.Fatal(err)
	}
	if heft.Makespan >= fifo.Makespan {
		t.Errorf("HEFT (%v) must beat FIFO (%v) on a heterogeneous mix", heft.Makespan, fifo.Makespan)
	}
}

func TestChainRespectsPrecedenceTimes(t *testing.T) {
	topo := testbed(t)
	job := chainJob(5, 1e7)
	for _, s := range allSchedulers() {
		sch, err := s.Schedule(job, topo)
		if err != nil {
			t.Fatal(err)
		}
		prevFinish := of(t, sch, "a").Finish
		for _, id := range []string{"b", "c", "d", "e"} {
			a := of(t, sch, id)
			if a.Start < prevFinish {
				t.Errorf("%s: %s starts at %v before predecessor finished at %v", s.Name(), id, a.Start, prevFinish)
			}
			prevFinish = a.Finish
		}
	}
}

func TestCommCostDiscouragesPointlessMigration(t *testing.T) {
	// Two tiny chained tasks with a huge intermediate result: HEFT should
	// co-locate them (zero comm) rather than hop devices.
	topo := testbed(t)
	j := dataflow.NewJob("colocate")
	a := j.Task("a", dataflow.Props{Ops: 1e6, OutputBytes: 1 << 30}, nil)
	b := j.Task("b", dataflow.Props{Ops: 1e6}, nil)
	a.Then(b)
	sch, err := HEFT{}.Schedule(j, topo)
	if err != nil {
		t.Fatal(err)
	}
	if of(t, sch, "a").Compute != of(t, sch, "b").Compute {
		t.Errorf("1 GiB handover split across %s and %s", of(t, sch, "a").Compute, of(t, sch, "b").Compute)
	}
}

func TestValidateCatchesBrokenSchedules(t *testing.T) {
	topo := testbed(t)
	job := chainJob(3, 1e6)
	sch, err := HEFT{}.Schedule(job, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Break precedence.
	bad := *sch
	bad.Tasks = append([]Assignment(nil), sch.Tasks...)
	bad.Tasks[1].Start = 0 // b, the chain's second task
	if err := Validate(job, topo, &bad); err == nil {
		t.Error("precedence violation must be caught")
	}
	// Drop a task.
	bad.Tasks = bad.Tasks[:2]
	if err := Validate(job, topo, &bad); err == nil {
		t.Error("missing assignment must be caught")
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	topo := testbed(t)
	job := fanoutJob(10, 1e7)
	for _, s := range allSchedulers() {
		s1, err := s.Schedule(job, topo)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := s.Schedule(job, topo)
		if err != nil {
			t.Fatal(err)
		}
		for k, a1 := range s1.Tasks {
			if a2 := s2.Tasks[k]; a1 != a2 {
				t.Fatalf("%s: nondeterministic assignment for %s: %+v vs %+v", s.Name(), a1.Task, a1, a2)
			}
		}
	}
}

// Property: on random DAGs, every scheduler yields a valid schedule and
// HEFT's makespan never exceeds FIFO's by more than rounding noise.
func TestRandomDAGScheduleProperty(t *testing.T) {
	topo := testbed(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		j := dataflow.NewJob("rand")
		tasks := make([]*dataflow.Task, n)
		prefs := []dataflow.DevicePref{dataflow.AnyDevice, dataflow.OnCPU, dataflow.OnGPU}
		for i := range tasks {
			tasks[i] = j.Task(string(rune('a'+i)), dataflow.Props{
				Compute:     prefs[rng.Intn(len(prefs))],
				Ops:         float64(1+rng.Intn(1000)) * 1e5,
				OutputBytes: int64(rng.Intn(1 << 20)),
			}, nil)
		}
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				if rng.Intn(3) == 0 {
					tasks[i].Then(tasks[k])
				}
			}
		}
		var heftSpan, fifoSpan float64
		for _, s := range allSchedulers() {
			sch, err := s.Schedule(j, topo)
			if err != nil {
				return false
			}
			if Validate(j, topo, sch) != nil {
				return false
			}
			switch s.Name() {
			case "HEFT":
				heftSpan = float64(sch.Makespan)
			case "FIFO":
				fifoSpan = float64(sch.Makespan)
			}
		}
		return heftSpan <= fifoSpan*1.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHEFT(b *testing.B) {
	topo := testbed(b)
	job := fanoutJob(26, 1e7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (HEFT{}).Schedule(job, topo); err != nil {
			b.Fatal(err)
		}
	}
}
