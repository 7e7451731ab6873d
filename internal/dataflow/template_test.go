package dataflow_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/workload"
)

// replay returns a Build that rebuilds src task for task and edge for edge:
// the same IDs, properties and bodies in insertion order, and Then calls in an
// order that gives every task src's pred and succ order.
func replay(src *dataflow.Job) func(*dataflow.Job, int) error {
	return func(j *dataflow.Job, _ int) error {
		tasks := src.Tasks()
		mine := make(map[*dataflow.Task]*dataflow.Task, len(tasks))
		for _, task := range tasks {
			mine[task] = j.Task(task.ID(), task.Props(), task.Fn())
		}
		// An edge goes next when it is next in its producer's succ list and in
		// its consumer's pred list.
		nextSucc, nextPred := map[*dataflow.Task]int{}, map[*dataflow.Task]int{}
		edges := 0
		for progress := true; progress; {
			progress = false
			for _, task := range tasks {
				for nextSucc[task] < task.NumSuccs() {
					s := task.Succ(nextSucc[task])
					if nextPred[s] >= s.NumPreds() || s.Pred(nextPred[s]) != task {
						break
					}
					mine[task].Then(mine[s])
					nextSucc[task]++
					nextPred[s]++
					edges, progress = edges+1, true
				}
			}
		}
		if g, _ := src.Graph(); edges != g.Edges() {
			return fmt.Errorf("%s: replayed %d of %d edges", src.Name(), edges, g.Edges())
		}
		return nil
	}
}

// alongOwnShape instantiates twice and checks the second instance, built
// along the first's graph, against resolve.
func alongOwnShape(t *testing.T, name string, instantiate func(int) (*dataflow.Job, error)) {
	t.Helper()
	first, err := instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := first.Graph()
	g, _ := j.Graph()
	if !g.SharesShape(shape) {
		t.Fatalf("%s: the second instance was not built along the first's graph", name)
	}
	want, err := j.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if d := dataflow.DiffGraphs(g, want); d != "" {
		t.Fatalf("%s: the graph built along the shape differs from resolve's: %s", name, d)
	}
	for k := range want.Order {
		if g.Order[k] != want.Order[k] {
			t.Fatalf("%s: rank %d is not the job's own task %s", name, k, want.Order[k].ID())
		}
	}
	if g.Order[0] == shape.Order[0] {
		t.Fatalf("%s: the instance's Order holds the shape's tasks", name)
	}
	// The job keeps no ID map; Get finds its tasks all the same.
	for _, task := range j.Tasks() {
		if got, ok := j.Get(task.ID()); !ok || got != task {
			t.Fatalf("%s: Get(%q) = %v, %v", name, task.ID(), got, ok)
		}
	}
	if _, ok := j.Get("no such task"); ok {
		t.Fatalf("%s: Get found a task the job does not have", name)
	}
}

// TestBuiltAlongShapeEqualsResolve: each workload job, rebuilt by a template
// along its own shape, and a stream window built along the window before it,
// have the graph resolve computes, field by field.
func TestBuiltAlongShapeEqualsResolve(t *testing.T) {
	for _, src := range []*dataflow.Job{
		workload.Hospital(workload.DefaultHospital()),
		workload.DBMS(workload.DefaultDBMS()),
		workload.ML(workload.DefaultML()),
		workload.HPC(workload.DefaultHPC()),
		workload.Graph(workload.DefaultGraph()),
		workload.StreamWindow(workload.DefaultStream(), 0),
	} {
		tmpl := &dataflow.Template{Name: src.Name() + "/%d", Build: replay(src)}
		alongOwnShape(t, src.Name(), tmpl.Instantiate)
	}
	cfg := workload.StreamConfig{Windows: 2, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2}
	events := workload.StreamEvents(cfg)
	windows := workload.Stream(cfg).Windows()
	alongOwnShape(t, "stream window", func(w int) (*dataflow.Job, error) {
		return windows.Instantiate(w, events[w*cfg.WindowSize:(w+1)*cfg.WindowSize])
	})
}

// variant builds a small fan-out (a → b, c → d) with one change when told.
func variant(change string) func(*dataflow.Job) {
	return func(j *dataflow.Job) {
		ids := []string{"a", "b", "c", "d"}
		if change == "renamed" {
			ids[2] = "C"
		}
		ts := make([]*dataflow.Task, len(ids))
		for i, id := range ids {
			ts[i] = j.Task(id, dataflow.Props{Ops: float64(i + 1)}, nil)
		}
		a, b, c, d := ts[0], ts[1], ts[2], ts[3]
		switch change {
		case "reordered":
			a.Then(c)
			a.Then(b)
		case "missing edge":
			a.Then(b)
		default:
			a.Then(b)
			a.Then(c)
		}
		b.Then(d)
		c.Then(d)
		switch change {
		case "extra task":
			d.Then(j.Task("e", dataflow.Props{}, nil))
		case "extra edge":
			a.Then(d)
		case "foreign successor":
			d.Then(dataflow.NewJob("other").Task("x", dataflow.Props{}, nil))
		}
	}
}

// TestShapeMismatchFallsBack: an instance Build makes differently from the
// shape — any one change — is resolved afresh, to the graph a fresh job of
// the same build has, and the next instance is built along it.
func TestShapeMismatchFallsBack(t *testing.T) {
	for _, change := range []string{"renamed", "extra task", "missing edge", "extra edge", "reordered", "foreign successor"} {
		builds := []func(*dataflow.Job){variant(""), variant(change), variant(change), variant("")}
		tmpl := &dataflow.Template{Name: "v%d", Build: func(j *dataflow.Job, n int) error {
			builds[n](j)
			return nil
		}}
		var prev *dataflow.Graph
		for n, build := range builds {
			j, err := tmpl.Instantiate(n)
			if err != nil {
				t.Fatalf("%s: instance %d: %v", change, n, err)
			}
			g, _ := j.Graph()
			fresh := dataflow.NewJob("fresh")
			build(fresh)
			want, err := fresh.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if d := dataflow.DiffGraphs(g, want); d != "" {
				t.Errorf("%s: instance %d differs from a fresh job's graph: %s", change, n, d)
			}
			// Instances 1 and 3 change the shape; 2 repeats 1's. No graph holds
			// an edge out of the job, so an instance with one never passes the
			// check, and instance 3, whose graph is the same without it, does.
			along := n == 2
			if change == "foreign successor" {
				along = n == 3
			}
			if shares := prev != nil && g.SharesShape(prev); shares != along {
				t.Errorf("%s: instance %d shares the previous graph: %v", change, n, shares)
			}
			prev = g
		}
	}
}

// TestTemplateConcurrentInstances: instances stamped from several goroutines
// at once, each built along whichever graph the template held, all have the
// graph resolve computes. Run under -race.
func TestTemplateConcurrentInstances(t *testing.T) {
	src := workload.Hospital(workload.DefaultHospital())
	tmpl := &dataflow.Template{Name: "h%d", Build: replay(src)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				j, err := tmpl.Instantiate(n)
				if err != nil {
					t.Error(err)
					return
				}
				g, _ := j.Graph()
				want, _ := j.Resolve()
				if d := dataflow.DiffGraphs(g, want); d != "" {
					t.Errorf("instance %d: %s", n, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDuplicateIDPanicsAlongShape: the shape's IDs are distinct, so a job
// built along it keeps no ID map while it follows the shape; a duplicate
// leaves the shape and still panics.
func TestDuplicateIDPanicsAlongShape(t *testing.T) {
	tmpl := &dataflow.Template{Name: "dup%d", Build: func(j *dataflow.Job, n int) error {
		a := j.Task("a", dataflow.Props{}, nil)
		if n > 0 {
			j.Task("a", dataflow.Props{}, nil)
		}
		a.Then(j.Task("b", dataflow.Props{}, nil))
		return nil
	}}
	if _, err := tmpl.Instantiate(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "duplicate task id a") {
			t.Errorf("a duplicate ID along a shape recovered %v, want the duplicate panic", r)
		}
	}()
	tmpl.Instantiate(1) //nolint:errcheck // panics
}
