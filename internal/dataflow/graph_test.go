package dataflow

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// checkGraph fails unless g is j's DAG rank for rank: the same tasks in
// order, each in-edge list the ranks of Pred(0..), each out-edge list the
// ranks of the successors that are in the job, and every out-edge's slot the
// position of one distinct matching in-edge at its consumer.
func checkGraph(t *testing.T, j *Job, g *Graph) {
	t.Helper()
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(order) {
		t.Fatalf("graph has %d ranks, order %d", g.Len(), len(order))
	}
	rank := make(map[*Task]int32, len(order))
	for k, task := range order {
		if g.Order[k] != task {
			t.Fatalf("rank %d is %s, order has %s", k, g.Order[k].ID(), task.ID())
		}
		rank[task] = int32(k)
	}
	edges, used := 0, make(map[int32]bool)
	framed := g.Names([]byte("ns/"), "/in")
	for k, task := range order {
		if got := g.Name(framed, k, len("ns/")+len("/in")); got != "ns/"+task.ID()+"/in" || g.OutName(k) != task.ID()+"/out" {
			t.Fatalf("%s: Name %q, OutName %q", task.ID(), got, g.OutName(k))
		}
		preds := g.Preds(k)
		taskPreds := task.Preds()
		if len(preds) != len(taskPreds) {
			t.Fatalf("%s: %d in-edges, %d preds", task.ID(), len(preds), len(taskPreds))
		}
		for i, p := range preds {
			if p != rank[taskPreds[i]] {
				t.Fatalf("%s in-edge %d is rank %d, Preds()[%d] has rank %d", task.ID(), i, p, i, rank[taskPreds[i]])
			}
		}
		edges += len(preds)
		var mine []int32
		for _, succ := range task.Succs() {
			if s, ok := rank[succ]; ok {
				mine = append(mine, s)
			}
		}
		succs, slots := g.Succs(k), g.OutSlots(k)
		if len(succs) != len(mine) || len(slots) != len(mine) {
			t.Fatalf("%s: %d out-edges, %d slots, %d successors in the job", task.ID(), len(succs), len(slots), len(mine))
		}
		for i, s := range succs {
			if s != mine[i] {
				t.Fatalf("%s out-edge %d is rank %d, want %d", task.ID(), i, s, mine[i])
			}
			at := slots[i] - int32(g.InSlot(int(s)))
			if at < 0 || int(at) >= len(g.Preds(int(s))) || g.Preds(int(s))[at] != int32(k) {
				t.Fatalf("%s out-edge %d: slot %d is not an in-edge of rank %d from rank %d", task.ID(), i, slots[i], s, k)
			}
			if used[slots[i]] {
				t.Fatalf("%s out-edge %d: slot %d paired twice", task.ID(), i, slots[i])
			}
			used[slots[i]] = true
		}
	}
	if g.Edges() != edges || len(used) != edges {
		t.Fatalf("Edges() = %d, %d in-edges counted, %d paired", g.Edges(), edges, len(used))
	}
}

// TestGraphAgreesWithTheTasks: on random DAGs — edges added in random order,
// some of them twice — the remembered graph says what Pred and Succ say.
func TestGraphAgreesWithTheTasks(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		j := NewJob("rand")
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = j.Task(strings.Repeat(string(rune('A'+i)), 1+i%3), Props{}, nil)
		}
		// A random permutation decides which way an edge may point, so ranks
		// differ from insertion indices.
		perm := rng.Perm(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if perm[a] > perm[b] {
				a, b = b, a
			}
			if a == b {
				continue
			}
			tasks[a].Then(tasks[b])
			if rng.Intn(8) == 0 {
				tasks[a].Then(tasks[b])
			}
		}
		g, err := j.Graph()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkGraph(t, j, g)
	}
}

// TestGraphRememberedUntilTheGraphGrows: one graph per (tasks, edges), a new
// one after Task or Then, and an edge out of the job in neither.
func TestGraphRememberedUntilTheGraphGrows(t *testing.T) {
	j := diamond()
	g1, err := j.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g2, _ := j.Graph(); g2 != g1 {
		t.Error("Graph must return the remembered graph while the job is unchanged")
	}
	if o, _ := j.Order(); &o[0] != &g1.Order[0] {
		t.Error("Order must be the remembered graph's order")
	}
	e := j.Task("e", Props{}, nil)
	g3, _ := j.Graph()
	if g3 == g1 || g3.Len() != 5 {
		t.Fatalf("a new task must resolve a new graph, got %d ranks", g3.Len())
	}
	d, _ := j.Get("d")
	e.Then(d)
	g4, _ := j.Graph()
	if g4 == g3 || g4.Edges() != 5 {
		t.Fatalf("a new edge must resolve a new graph, got %d edges", g4.Edges())
	}
	checkGraph(t, j, g4)

	other := NewJob("other")
	d.Then(other.Task("x", Props{}, nil))
	g5, err := j.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g5.Edges() != 5 || len(g5.Succs(4)) != 0 {
		t.Errorf("an edge out of the job is in the graph: %d edges, d has out-edges %v", g5.Edges(), g5.Succs(4))
	}
	checkGraph(t, j, g5)
}

// TestGraphConcurrentCallers: planning, admission and execution of one job
// resolve its graph from several goroutines at once. Run under -race.
func TestGraphConcurrentCallers(t *testing.T) {
	j := diamond()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g, err := j.Graph()
				if err != nil || g.Len() != 4 || g.Edges() != 4 || len(g.Preds(3)) != 2 || g.OutSlots(0)[1] != int32(g.InSlot(2)) {
					t.Errorf("graph %+v, err %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
