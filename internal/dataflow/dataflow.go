// Package dataflow implements the application-facing half of the paper's
// programming model (§2.1): applications launch *jobs* made of *tasks*;
// connected tasks form a directed acyclic graph; declarative *properties*
// attach to tasks (compute device preference, confidentiality, persistence,
// memory latency class) and the runtime — not the developer — turns them
// into placement and scheduling decisions.
//
// The package is pure structure: building, validating, and traversing the
// DAG. Execution lives in internal/core, scheduling in internal/sched.
package dataflow

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// DevicePref declares which compute device kind a task wants (Fig. 2's
// "comp. device" property). AnyDevice defers entirely to the scheduler.
type DevicePref uint8

const (
	AnyDevice DevicePref = iota
	OnCPU
	OnGPU
	OnTPU
	OnFPGA
)

// String returns the preference name.
func (p DevicePref) String() string {
	switch p {
	case AnyDevice:
		return "any"
	case OnCPU:
		return "CPU"
	case OnGPU:
		return "GPU"
	case OnTPU:
		return "TPU"
	case OnFPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("DevicePref(%d)", uint8(p))
	}
}

// Kind maps the preference to a topology compute kind; ok is false for
// AnyDevice.
func (p DevicePref) Kind() (topology.ComputeKind, bool) {
	switch p {
	case OnCPU:
		return topology.CPU, true
	case OnGPU:
		return topology.GPU, true
	case OnTPU:
		return topology.TPU, true
	case OnFPGA:
		return topology.FPGA, true
	default:
		return topology.CPU, false
	}
}

// Props are the declarative task properties of Fig. 2c.
type Props struct {
	Compute      DevicePref         // which kind of compute device
	Confidential bool               // data must not be visible to other tasks/jobs
	Persistent   bool               // task state must survive crashes (T5)
	MemLatency   props.LatencyClass // latency demand for the task's scratch
	Ops          float64            // computational work, in scalar operations
	OutputBytes  int64              // bytes this task hands to each successor
}

// Ctx is the execution context internal/core passes to task bodies. It is
// an interface here to keep dataflow free of the runtime dependency.
type Ctx interface {
	// Now returns the task-local virtual clock.
	Now() time.Duration
	// Compute returns the compute device the task was scheduled on.
	Compute() string
	// Charge advances the virtual clock by the time `ops` scalar
	// operations take on the assigned compute device.
	Charge(ops float64)
	// Wait advances the virtual clock to at least t (e.g. after an async
	// Future.Await).
	Wait(t time.Duration)
	// Scratch allocates task-private scratch memory (freed automatically
	// when the task finishes).
	Scratch(name string, size int64) (*region.Handle, error)
	// Output allocates the region this task will hand to its successors
	// (Fig. 4's "Out"). Call at most once; the runtime transfers or shares
	// it after the task returns.
	Output(size int64) (*region.Handle, error)
	// Inputs returns the regions produced by predecessor tasks, in
	// predecessor order. The task owns them and must not use them after
	// returning.
	Inputs() []*region.Handle
	// Global returns (allocating on first use) a job-wide named region of
	// the given class — Global State for synchronization, Global Scratch
	// for cross-task data exchange (Table 2).
	Global(name string, class props.RegionClass, size int64) (*region.Handle, error)
	// Log records a human-readable event into the run report.
	Log(format string, args ...any)
	// Telemetry exposes the cross-layer metrics registry.
	Telemetry() *telemetry.Registry
}

// Fn is a task body.
type Fn func(ctx Ctx) error

// Task is one node of the job DAG.
type Task struct {
	id    string
	props Props
	fn    Fn
	preds []*Task
	succs []*Task
}

// ID returns the task's identifier.
func (t *Task) ID() string { return t.id }

// Props returns the task's declared properties.
func (t *Task) Props() Props { return t.props }

// Fn returns the task body (nil for structure-only tasks in tests).
func (t *Task) Fn() Fn { return t.fn }

// Preds returns the predecessor tasks in edge-insertion order. The slice is
// the caller's own copy; loops that only read use the Graph's Preds.
func (t *Task) Preds() []*Task { return append([]*Task(nil), t.preds...) }

// Succs returns the successor tasks in edge-insertion order. The slice is
// the caller's own copy; loops that only read use the Graph's Succs.
func (t *Task) Succs() []*Task { return append([]*Task(nil), t.succs...) }

// Then connects t → next and returns next, allowing chain syntax:
// preprocess.Then(recognize).Then(track).
func (t *Task) Then(next *Task) *Task {
	t.succs = append(t.succs, next)
	next.preds = append(next.preds, t)
	return next
}

// Job is a named DAG of tasks plus job-level properties.
type Job struct {
	name string
	// tasks finds a task by ID, to refuse a duplicate. A job built along a
	// shape has none while its tasks follow the shape (see Task).
	tasks map[string]*Task
	order []*Task // insertion order
	// topo remembers Graph's result and the graph it was computed on.
	topo atomic.Pointer[topoMemo]
	// shape is the graph a Template builds this job along (alongShape), nil
	// for a job of NewJob's or one whose tasks left the shape.
	shape *Graph
}

// topoMemo is one resolved graph. A job's tasks and edges are only ever
// added, so the two counts identify the graph it belongs to.
type topoMemo struct {
	tasks, edges int
	g            *Graph
	err          error
}

// Graph is a job's DAG resolved to ranks: a task's rank is its position in
// the deterministic topological order, and every edge is held as the ranks
// at its two ends (compressed rows, one []int32 block). It is what planning
// and execution index their per-task state by, so none of them looks a task
// up by ID or pointer. A Graph is shared by every caller and read-only.
type Graph struct {
	// Order is the topological order: Order[k] is the task of rank k.
	Order []*Task
	// Rank k's in-edges are preds[predOff[k]:predOff[k+1]], in edge-insertion
	// order (Task.Preds order); its out-edges succs[succOff[k]:succOff[k+1]],
	// in Task.Succs order with edges out of the job left out. slots is parallel
	// to succs: the position in preds of the same edge seen from its consumer.
	predOff, succOff    []int32
	preds, succs, slots []int32
	// idOff[k] is the summed length of the IDs of the ranks below k: where
	// rank k's piece starts in a string Names built, once the frames around the
	// pieces before it are added. outNames is Names("", outSuffix).
	idOff    []int32
	outNames string
	// rank maps a task's insertion index to its rank, ins a rank back to the
	// insertion index: what building a job along this graph (alongShape) and
	// checking it against the graph (along) index by.
	rank, ins []int32
}

// outSuffix ends the name of a task's output region.
const outSuffix = "/out"

// Len returns the task count.
func (g *Graph) Len() int { return len(g.Order) }

// Edges returns the edge count: one slot per edge is what per-edge state
// (a delivered output awaiting its consumer) is sized by.
func (g *Graph) Edges() int { return len(g.preds) }

// Preds returns the ranks of rank k's predecessors, in Task.Preds order.
func (g *Graph) Preds(k int) []int32 { return g.preds[g.predOff[k]:g.predOff[k+1]] }

// Succs returns the ranks of rank k's successors, in Task.Succs order.
func (g *Graph) Succs(k int) []int32 { return g.succs[g.succOff[k]:g.succOff[k+1]] }

// InSlot returns the edge slot of rank k's first in-edge; its i'th in-edge
// (from Preds(k)[i]) has slot InSlot(k)+i. Slots number all edges 0..Edges()-1.
func (g *Graph) InSlot(k int) int { return int(g.predOff[k]) }

// OutSlots is parallel to Succs(k): the slot each out-edge has at its
// consumer, i.e. OutSlots(k)[i] == InSlot(s)+j where Preds(s)[j] is this edge.
func (g *Graph) OutSlots(k int) []int32 { return g.slots[g.succOff[k]:g.succOff[k+1]] }

// Names returns a name for every task in one string: prefix+ID+suffix, rank
// after rank. A caller that needs a name per task — the runtime's region
// owners — keeps the string and has Name cut rank k's piece out of it, so
// naming a job's tasks costs one string, not one per task.
func (g *Graph) Names(prefix, suffix string) string {
	n := len(g.Order)
	var b strings.Builder
	b.Grow(int(g.idOff[n]) + n*(len(prefix)+len(suffix)))
	for _, t := range g.Order {
		b.WriteString(prefix)
		b.WriteString(t.id)
		b.WriteString(suffix)
	}
	return b.String()
}

// Name returns rank k's piece of names, which Names built with a prefix and a
// suffix of frame bytes together.
func (g *Graph) Name(names string, k, frame int) string {
	return names[int(g.idOff[k])+k*frame : int(g.idOff[k+1])+(k+1)*frame]
}

// OutName returns the name of rank k's output region, ID+"/out": a piece of
// one string built with the graph.
func (g *Graph) OutName(k int) string { return g.Name(g.outNames, k, len(outSuffix)) }

// NewJob creates an empty job.
func NewJob(name string) *Job {
	return &Job{name: name, tasks: make(map[string]*Task)}
}

// Name returns the job name.
func (j *Job) Name() string { return j.name }

// Task adds a task. Duplicate IDs panic: they are programming errors in the
// dataflow definition, not runtime conditions.
//
// On a job built along a shape, a task that has the shape's next ID takes its
// slot in the job's blocks. The shape's IDs are distinct, so no such task can
// be a duplicate and no ID map is kept; the first task that deviates builds
// the map from the tasks added so far and leaves the shape for good.
func (j *Job) Task(id string, p Props, fn Fn) *Task {
	if id == "" {
		panic("dataflow: empty task id")
	}
	if s := j.shape; s != nil {
		if i := len(j.order); i < len(s.Order) && s.Order[s.rank[i]].id == id {
			j.order = j.order[:i+1]
			t := j.order[i] // alongShape put task i's slot here
			t.id, t.props, t.fn = id, p, fn
			return t
		}
		j.leaveShape()
	}
	if _, dup := j.tasks[id]; dup {
		panic("dataflow: duplicate task id " + id)
	}
	t := &Task{id: id, props: p, fn: fn}
	j.tasks[id] = t
	j.order = append(j.order, t)
	return t
}

// leaveShape turns a job built along a shape into an ordinary one: its tasks
// so far go into an ID map, and its order is clipped so that a new task
// appends to a slice of its own rather than into the shape's blocks.
func (j *Job) leaveShape() {
	j.shape = nil
	j.order = slices.Clip(j.order)
	j.tasks = make(map[string]*Task, len(j.order))
	for _, t := range j.order {
		j.tasks[t.id] = t
	}
}

// Get returns a task by ID.
func (j *Job) Get(id string) (*Task, bool) {
	for _, t := range j.order {
		if t.id == id {
			return t, true
		}
	}
	return nil, false
}

// Tasks returns all tasks in insertion order.
func (j *Job) Tasks() []*Task { return append([]*Task(nil), j.order...) }

// Len returns the task count.
func (j *Job) Len() int { return len(j.order) }

// ErrCycle is returned by Validate for cyclic graphs.
var ErrCycle = errors.New("dataflow: job graph has a cycle")

// Validate checks the job is a proper DAG with sane properties.
func (j *Job) Validate() error {
	if len(j.order) == 0 {
		return errors.New("dataflow: job has no tasks")
	}
	for _, t := range j.order {
		if t.props.Ops < 0 || t.props.OutputBytes < 0 {
			return fmt.Errorf("dataflow: task %s has negative work", t.id)
		}
	}
	_, err := j.Order()
	return err
}

// TopoOrder returns the tasks in a deterministic topological order
// (Kahn's algorithm; ready set ordered by insertion index). The slice is the
// caller's own copy; callers that only read use Order.
func (j *Job) TopoOrder() ([]*Task, error) {
	order, err := j.Order()
	return append([]*Task(nil), order...), err
}

// Order is TopoOrder without the copy: Graph's order, shared by every caller.
func (j *Job) Order() ([]*Task, error) {
	g, err := j.Graph()
	if err != nil {
		return nil, err
	}
	return g.Order, nil
}

// Graph returns the job's resolved graph. It is computed once per graph —
// validation, planning, estimation and execution of a submission all read
// the same one — and again only after a task or an edge was added. Safe for
// concurrent callers once the job is no longer being built.
func (j *Job) Graph() (*Graph, error) {
	edges := 0
	for _, t := range j.order {
		edges += len(t.succs)
	}
	if m := j.topo.Load(); m != nil && m.tasks == len(j.order) && m.edges == edges {
		return m.g, m.err
	}
	var g *Graph
	var err error
	if j.shape != nil {
		g = j.along()
	}
	if g == nil {
		g, err = j.resolve()
	}
	j.topo.Store(&topoMemo{tasks: len(j.order), edges: edges, g: g, err: err})
	return g, err
}

// alongShape returns an empty job to be built along shape s, in storage sized
// from it: one block of len(s.Order) tasks, and one block of task pointers
// that holds the insertion order, every task's pred and succ lists as windows
// clipped to the shape's counts, and the rank-ordered Order that along fills.
// A job built differently still works: a list that outgrows its window moves
// out of the block, and a task off the shape leaves it (leaveShape).
func alongShape(name string, s *Graph) *Job {
	n := len(s.Order)
	tasks := make([]Task, n)
	ptrs := make([]*Task, 2*n+len(s.preds)+len(s.succs))
	at := int32(n)
	for i := range tasks {
		k := s.rank[i]
		np, ns := s.predOff[k+1]-s.predOff[k], s.succOff[k+1]-s.succOff[k]
		tasks[i].preds = ptrs[at : at : at+np]
		tasks[i].succs = ptrs[at+np : at+np : at+np+ns]
		at += np + ns
		ptrs[i] = &tasks[i]
	}
	return &Job{name: name, order: ptrs[:0], shape: s}
}

// along returns the job's graph on its shape's blocks if the job has the
// shape, nil if not. The check is the whole graph: the shape's IDs in
// insertion order, and every task's preds and succs the shape's, edge for
// edge, by identity — a missing, extra or reordered edge fails it, and so does
// a successor in another job. Two jobs that pass it have the same ranks, edges,
// slots and names, so only Order is the job's own.
func (j *Job) along() *Graph {
	s := j.shape
	n := len(s.Order)
	if len(j.order) != n {
		return nil
	}
	for i, t := range j.order {
		k := int(s.rank[i])
		if t.id != s.Order[k].id || !j.matches(t.preds, s.Preds(k)) || !j.matches(t.succs, s.Succs(k)) {
			return nil
		}
	}
	block := j.order[:cap(j.order)]
	order := block[len(block)-n:]
	for k, i := range s.ins {
		order[k] = j.order[i]
	}
	g := *s
	g.Order = order
	return &g
}

// matches reports whether tasks are the job's tasks of these ranks in its shape,
// one for one.
func (j *Job) matches(tasks []*Task, ranks []int32) bool {
	if len(tasks) != len(ranks) {
		return false
	}
	for e, k := range ranks {
		if tasks[e] != j.order[j.shape.ins[k]] {
			return false
		}
	}
	return true
}

// resolve is the uncached sort behind Graph: Kahn's algorithm over the
// tasks' insertion indices, the ready set kept ascending so the lowest index
// is always next; then every edge is rewritten from task pointers to ranks.
func (j *Job) resolve() (*Graph, error) {
	n := len(j.order)
	idx := make(map[*Task]int, n)
	indeg := make([]int, n)
	ready := make([]int, 0, n)
	nPreds, nSuccs := 0, 0
	for i, t := range j.order {
		idx[t] = i
		indeg[i] = len(t.preds)
		nPreds += len(t.preds)
		nSuccs += len(t.succs)
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]*Task, 0, n)
	block := make([]int32, 5*n+3+nPreds+2*nSuccs)
	rank, ins := block[:n], block[n:2*n]
	block = block[2*n:]
	for len(ready) > 0 {
		t := j.order[ready[0]]
		rank[ready[0]], ins[len(out)] = int32(len(out)), int32(ready[0])
		ready = ready[1:]
		out = append(out, t)
		for _, s := range t.succs {
			i, mine := idx[s]
			if !mine {
				continue // an edge out of the job orders nothing in it
			}
			if indeg[i]--; indeg[i] == 0 {
				at := sort.SearchInts(ready, i)
				ready = append(ready, 0)
				copy(ready[at+1:], ready[at:])
				ready[at] = i
			}
		}
	}
	if len(out) != n {
		return nil, ErrCycle
	}
	// Every predecessor is in the job (a foreign one would have left its task
	// unsorted above); a foreign successor is skipped as the sort skipped it.
	g := &Graph{
		Order: out, rank: rank, ins: ins,
		predOff: block[:n+1], succOff: block[n+1 : 2*(n+1)], idOff: block[2*(n+1) : 3*(n+1)],
	}
	block = block[3*(n+1):]
	g.preds, block = block[:0:nPreds], block[nPreds:]
	g.succs, g.slots = block[:0:nSuccs], block[nSuccs:nSuccs:2*nSuccs]
	for k, t := range out {
		for _, p := range t.preds {
			g.preds = append(g.preds, rank[idx[p]])
		}
		g.predOff[k+1] = int32(len(g.preds))
		for _, s := range t.succs {
			if i, mine := idx[s]; mine {
				g.succs = append(g.succs, rank[i])
			}
		}
		g.succOff[k+1] = int32(len(g.succs))
		g.idOff[k+1] = g.idOff[k] + int32(len(t.id))
	}
	g.outNames = g.Names("", outSuffix)
	// Pair each out-edge with its consumer's in-edge: the first one from this
	// producer not paired yet (Then appends both ends of an edge together, so
	// a repeated edge pairs up in order).
	g.slots = g.slots[:len(g.succs)]
	paired := make([]bool, nPreds)
	for p := range out {
		for e := g.succOff[p]; e < g.succOff[p+1]; e++ {
			s := g.succs[e]
			for at := g.predOff[s]; at < g.predOff[s+1]; at++ {
				if g.preds[at] == int32(p) && !paired[at] {
					paired[at], g.slots[e] = true, at
					break
				}
			}
		}
	}
	return g, nil
}
