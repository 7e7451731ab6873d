package dataflow

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func diamond() *Job {
	j := NewJob("diamond")
	a := j.Task("a", Props{Ops: 10}, nil)
	b := j.Task("b", Props{Ops: 20}, nil)
	c := j.Task("c", Props{Ops: 30}, nil)
	d := j.Task("d", Props{Ops: 5}, nil)
	a.Then(b)
	a.Then(c)
	b.Then(d)
	c.Then(d)
	return j
}

func TestJobConstruction(t *testing.T) {
	j := diamond()
	if j.Name() != "diamond" || j.Len() != 4 {
		t.Fatalf("job = %s/%d", j.Name(), j.Len())
	}
	a, ok := j.Get("a")
	if !ok {
		t.Fatal("missing task a")
	}
	if len(a.Succs()) != 2 {
		t.Errorf("a succs = %d, want 2", len(a.Succs()))
	}
	d, _ := j.Get("d")
	if len(d.Preds()) != 2 {
		t.Errorf("d preds = %d, want 2", len(d.Preds()))
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateTaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate id must panic")
		}
	}()
	j := NewJob("x")
	j.Task("t", Props{}, nil)
	j.Task("t", Props{}, nil)
}

func TestEmptyIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty id must panic")
		}
	}()
	NewJob("x").Task("", Props{}, nil)
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	j := diamond()
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, task := range order {
		pos[task.ID()] = i
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %s→%s violated in order %v", e[0], e[1], pos)
		}
	}
	// Deterministic: two calls agree.
	order2, _ := j.TopoOrder()
	for i := range order {
		if order[i] != order2[i] {
			t.Fatal("topo order must be deterministic")
		}
	}
}

func TestCycleDetection(t *testing.T) {
	j := NewJob("cyclic")
	a := j.Task("a", Props{}, nil)
	b := j.Task("b", Props{}, nil)
	a.Then(b)
	b.Then(a)
	if err := j.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}

// TestOrderRememberedUntilTheGraphGrows: Order hands every caller the same
// slice while the graph stands, recomputes after a task or an edge is added
// (including an edge that turns a valid job cyclic, and keeps the error), and
// TopoOrder stays the caller's own copy. Error texts are the ones Validate
// always returned.
func TestOrderRememberedUntilTheGraphGrows(t *testing.T) {
	j := diamond()
	o1, err := j.Order()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := j.Order()
	if &o1[0] != &o2[0] {
		t.Error("Order must return the remembered slice while the graph is unchanged")
	}
	cp, _ := j.TopoOrder()
	cp[0], cp[3] = cp[3], cp[0]
	if o3, _ := j.Order(); o3[0].ID() != "a" || o3[3].ID() != "d" {
		t.Error("mutating TopoOrder's copy reached the remembered order")
	}

	e := j.Task("e", Props{}, nil)
	if o, _ := j.Order(); len(o) != 5 || o[4] != e {
		t.Errorf("a new task must show up in the order, got %d tasks", len(o))
	}
	d, _ := j.Get("d")
	e.Then(d) // e must now precede d
	o, err := j.Order()
	if err != nil || o[3] != e || o[4] != d {
		t.Errorf("a new edge must reorder: %v, %v", o, err)
	}
	a, _ := j.Get("a")
	d.Then(a)
	for i := 0; i < 2; i++ { // computed, then remembered
		if _, err := j.Order(); !errors.Is(err, ErrCycle) {
			t.Errorf("call %d: err = %v, want ErrCycle", i, err)
		}
	}
	if err := j.Validate(); err == nil || err.Error() != "dataflow: job graph has a cycle" {
		t.Errorf("cyclic Validate error = %v", err)
	}
	if err := NewJob("empty").Validate(); err == nil || err.Error() != "dataflow: job has no tasks" {
		t.Errorf("empty Validate error = %v", err)
	}
}

// TestEdgeOutOfTheJobOrdersNothing: Then does not know about jobs, so a task
// can be given a successor that belongs to another job. Such an edge has
// never constrained either job's order, and the sort over insertion indices
// must not take it for an edge to the task at the same index here.
func TestEdgeOutOfTheJobOrdersNothing(t *testing.T) {
	big := NewJob("big")
	var last *Task
	for _, id := range []string{"p", "q", "r", "s"} {
		last = big.Task(id, Props{}, nil)
	}
	j := diamond()
	a, _ := j.Get("a")
	a.Then(last) // index 3 in its own job, and j has an index 3 too
	small := NewJob("small")
	x := small.Task("x", Props{}, nil)
	x.Then(last) // index 3 does not exist in small at all
	for _, job := range []*Job{j, small} {
		order, err := job.Order()
		if err != nil || len(order) != job.Len() {
			t.Fatalf("%s: order %v, err %v", job.Name(), order, err)
		}
	}
	if o, _ := j.Order(); o[0].ID() != "a" || o[1].ID() != "b" || o[2].ID() != "c" || o[3].ID() != "d" {
		t.Errorf("diamond order changed by a foreign edge: %v", o)
	}
	// The receiving job does see a predecessor it cannot satisfy.
	if _, err := big.Order(); !errors.Is(err, ErrCycle) {
		t.Errorf("job with a foreign predecessor: err = %v, want ErrCycle as before", err)
	}
}

// TestOrderConcurrentCallers: a built job is validated, planned and executed
// from several goroutines at once (the same *Job may be in flight in more
// than one submission); all of them must read one consistent order. Run
// under -race.
func TestOrderConcurrentCallers(t *testing.T) {
	j := diamond()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o, err := j.Order()
				if err != nil || len(o) != 4 || o[0].ID() != "a" || o[3].ID() != "d" {
					t.Errorf("Order = %v, %v", o, err)
					return
				}
				if err := j.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestValidateRejectsEmptyAndNegative(t *testing.T) {
	if err := NewJob("empty").Validate(); err == nil {
		t.Error("empty job must fail validation")
	}
	j := NewJob("neg")
	j.Task("t", Props{Ops: -1}, nil)
	if err := j.Validate(); err == nil {
		t.Error("negative ops must fail validation")
	}
}

// TestSourcesAndSinks reads a job's sources and sinks off its Graph: the
// ranks without in-edges and without out-edges.
func TestSourcesAndSinks(t *testing.T) {
	g, err := diamond().Graph()
	if err != nil {
		t.Fatal(err)
	}
	var sources, sinks []string
	for k, task := range g.Order {
		if len(g.Preds(k)) == 0 {
			sources = append(sources, task.ID())
		}
		if len(g.Succs(k)) == 0 {
			sinks = append(sinks, task.ID())
		}
	}
	if len(sources) != 1 || sources[0] != "a" {
		t.Errorf("sources = %v, want [a]", sources)
	}
	if len(sinks) != 1 || sinks[0] != "d" {
		t.Errorf("sinks = %v, want [d]", sinks)
	}
}

func TestDevicePref(t *testing.T) {
	if k, ok := OnGPU.Kind(); !ok || k != topology.GPU {
		t.Error("OnGPU must map to topology.GPU")
	}
	if _, ok := AnyDevice.Kind(); ok {
		t.Error("AnyDevice has no kind")
	}
	if OnCPU.String() != "CPU" || AnyDevice.String() != "any" || OnFPGA.String() != "FPGA" {
		t.Error("pref names wrong")
	}
}

func TestHospitalShape(t *testing.T) {
	// The Figure 2 job: T1→T2→{T3,T4,T5}.
	j := NewJob("hospital")
	t1 := j.Task("preprocess", Props{Compute: OnGPU, Confidential: true, MemLatency: 1}, nil)
	t2 := j.Task("face-recognition", Props{Compute: OnGPU, Confidential: true, MemLatency: 1}, nil)
	t3 := j.Task("track-hours", Props{Compute: OnCPU, Confidential: true, MemLatency: 1}, nil)
	t4 := j.Task("compute-utilization", Props{Compute: OnCPU}, nil)
	t5 := j.Task("alert-caregivers", Props{Compute: OnCPU, Confidential: true, Persistent: true}, nil)
	t1.Then(t2)
	t2.Then(t3)
	t2.Then(t4)
	t2.Then(t5)
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := j.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sinks := 0
	for k := range g.Order {
		if len(g.Succs(k)) == 0 {
			sinks++
		}
	}
	if sinks != 3 {
		t.Errorf("hospital sinks = %d, want 3", sinks)
	}
	if !t5.Props().Persistent || !t5.Props().Confidential {
		t.Error("T5 must be persistent and confidential (Fig. 2)")
	}
	if t4.Props().Confidential {
		t.Error("T4 (public utilization) must not be confidential")
	}
}

// Property: random DAGs built with forward-only edges always validate and
// topo-sort to a full ordering consistent with every edge.
func TestRandomDAGTopoProperty(t *testing.T) {
	f := func(edges []uint16, n uint8) bool {
		size := int(n%20) + 2
		j := NewJob("rand")
		tasks := make([]*Task, size)
		for i := range tasks {
			tasks[i] = j.Task(string(rune('A'+i%26))+string(rune('0'+i/26)), Props{Ops: float64(i)}, nil)
		}
		for _, e := range edges {
			from := int(e) % size
			to := int(e>>8) % size
			if from < to { // forward-only keeps it acyclic
				tasks[from].Then(tasks[to])
			}
		}
		if err := j.Validate(); err != nil {
			return false
		}
		order, err := j.TopoOrder()
		if err != nil || len(order) != size {
			return false
		}
		pos := map[*Task]int{}
		for i, task := range order {
			pos[task] = i
		}
		for _, task := range tasks {
			for _, s := range task.Succs() {
				if pos[task] >= pos[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
