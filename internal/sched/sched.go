// Package sched implements resource-aware task scheduling — RTS duty (4) of
// §2.3: mapping tasks onto heterogeneous compute devices "using cost models
// that consider topology and access paths". The primary policy is HEFT
// (Heterogeneous Earliest Finish Time): tasks are prioritized by upward
// rank (critical-path length under mean costs) and greedily assigned to the
// device minimizing their earliest finish time, including the cost of
// moving the predecessor's output across the interconnect.
//
// FIFO and round-robin baselines quantify what the cost model buys
// (ablation A2 in DESIGN.md).
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/dataflow"
	"repro/internal/topology"
)

// Assignment is one task's scheduled placement.
type Assignment struct {
	Task    string
	Compute string
	Dev     int // Compute's dense index (topology.ComputeDevice.Index)
	Start   time.Duration
	Finish  time.Duration
}

// Schedule is a full plan for a job.
type Schedule struct {
	Policy string
	// Tasks holds one assignment per task in rank order: Tasks[k] places the
	// task at position k of the job's topological order (dataflow.Job.Order),
	// which is the index internal/core executes by.
	Tasks    []Assignment
	Makespan time.Duration
}

// Of returns the assignment of a task by ID — for validation, tests and
// tables; planning and execution index Tasks by rank.
func (s *Schedule) Of(task string) (Assignment, bool) {
	for k := range s.Tasks {
		if s.Tasks[k].Task == task {
			return s.Tasks[k], true
		}
	}
	return Assignment{}, false
}

// BatchBefore is the deterministic cross-job dispatch order used when a
// serving batch overlaps several jobs on one worker pool: task rank first
// (the within-job sequential order), submission sequence as the tiebreak.
// Wall-clock interleaving between batch members is thereby a pure function
// of the batch — independent of pool size and goroutine scheduling — which
// is the batch-wide counterpart of the per-job rank order.
func BatchBefore(rankA, seqA, rankB, seqB int) bool {
	if rankA != rankB {
		return rankA < rankB
	}
	return seqA < seqB
}

// Scheduler plans a job onto a topology.
type Scheduler interface {
	Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error)
	Name() string
}

// ErrNoDevice is returned when a task's device preference cannot be met.
var ErrNoDevice = errors.New("sched: no compute device satisfies the task's preference")

// eligible returns the compute devices a task may run on (a shared list).
func eligible(t *dataflow.Task, cs *topology.ComputeSet) []*topology.ComputeDevice {
	if kind, ok := t.Props().Compute.Kind(); ok {
		return cs.ByKind(kind)
	}
	return cs.Devices
}

// execTime estimates a task's run time on a device from its declared Ops.
func execTime(t *dataflow.Task, c *topology.ComputeDevice) time.Duration {
	if t.Props().Ops <= 0 {
		return time.Microsecond // bookkeeping floor
	}
	sec := t.Props().Ops / (c.Gops * 1e9)
	return time.Duration(sec * float64(time.Second))
}

// commTime estimates moving `bytes` from the producer's device to the
// consumer's. Same device → free (ownership transfer, Fig. 4). Otherwise we
// price the cheapest path between the two compute endpoints.
func commTime(cs *topology.ComputeSet, from, to int, bytes int64) time.Duration {
	if from == to || bytes <= 0 {
		return 0
	}
	lat, bandwidth, ok := cs.Link(from, to)
	if !ok {
		return time.Millisecond // effectively discourages the pairing
	}
	xfer := time.Duration(float64(bytes) / bandwidth * float64(time.Second))
	return lat + xfer
}

// earliest returns the index and free time of a device's first available
// core (lowest index on ties).
func earliest(cores []time.Duration) (int, time.Duration) {
	best, bestAt := 0, cores[0]
	for i, at := range cores {
		if at < bestAt {
			best, bestAt = i, at
		}
	}
	return best, bestAt
}

// place is the placement step HEFT and the list baselines share: task k of
// the graph goes on device c at the earliest time its inputs have arrived
// there and one of c's cores is free. asg holds the assignments made so far
// (every predecessor's), cores the flat per-core availability table.
func place(g *dataflow.Graph, cs *topology.ComputeSet, asg []Assignment, cores []time.Duration, k int, c *topology.ComputeDevice) (core int, start, finish time.Duration) {
	var ready time.Duration
	for _, p := range g.Preds(k) {
		arr := asg[p].Finish + commTime(cs, asg[p].Dev, c.Index(), g.Order[p].Props().OutputBytes)
		if arr > ready {
			ready = arr
		}
	}
	core, start = earliest(cs.Cores(cores, c.Index()))
	if ready > start {
		start = ready
	}
	return core, start, start + execTime(g.Order[k], c)
}

// HEFT is the cost-model scheduler.
type HEFT struct{}

// Name implements Scheduler.
func (HEFT) Name() string { return "HEFT" }

// Schedule implements Scheduler.
func (h HEFT) Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error) {
	return h.ScheduleLoaded(job, topo, nil)
}

// ScheduleLoaded plans the job onto a machine that is already busy: initial
// is a flat per-core table (topology.ComputeSet.Cores) of times before which
// nothing can start — how the runtime packs concurrently submitted jobs
// across the cluster. Nil is an idle machine.
func (HEFT) ScheduleLoaded(job *dataflow.Job, topo *topology.Topology, initial []time.Duration) (*Schedule, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	cs := topo.ComputeSet()
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	g, _, rank, cores, err := upwardRanks(job, cs, sc)
	if err != nil {
		return nil, err
	}
	copy(cores, initial)
	return heft(g, cs, rank, cores, sc), nil
}

// heft is the HEFT placement loop over precomputed upward ranks. cores is the
// flat per-core table of times before which nothing can start, which the loop
// fills in; like rank it belongs to sc.
func heft(g *dataflow.Graph, cs *topology.ComputeSet, rank, cores []time.Duration, sc *planScratch) *Schedule {
	// Priority: rank descending (ties by topological position for
	// determinism and dependency safety).
	prio := slices.Grow(sc.prio[:0], g.Len())[:g.Len()]
	for k := range prio {
		prio[k] = int32(k)
	}
	sc.prio = prio
	slices.SortStableFunc(prio, func(a, b int32) int { return cmp.Compare(rank[b], rank[a]) })

	s := &Schedule{Policy: "HEFT", Tasks: make([]Assignment, g.Len())}
	for _, k := range prio {
		t := g.Order[k]
		var best *topology.ComputeDevice
		bestCore := -1
		var bestStart, bestFinish time.Duration
		for _, c := range eligible(t, cs) {
			core, start, finish := place(g, cs, s.Tasks, cores, int(k), c)
			if best == nil || finish < bestFinish {
				best, bestCore, bestStart, bestFinish = c, core, start, finish
			}
		}
		cs.Cores(cores, best.Index())[bestCore] = bestFinish
		s.Tasks[k] = Assignment{Task: t.ID(), Compute: best.ID, Dev: best.Index(), Start: bestStart, Finish: bestFinish}
		if bestFinish > s.Makespan {
			s.Makespan = bestFinish
		}
	}
	return s
}

// FIFO assigns tasks in topological order to the first eligible device kind
// listed by the topology, ignoring cost entirely.
type FIFO struct{}

// Name implements Scheduler.
func (FIFO) Name() string { return "FIFO" }

// Schedule implements Scheduler.
func (FIFO) Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error) {
	return listSchedule(job, topo, "FIFO", func(t *dataflow.Task, devs []*topology.ComputeDevice, i int) *topology.ComputeDevice {
		return devs[0]
	})
}

// RoundRobin cycles through eligible devices without regard to load or
// speed.
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Schedule implements Scheduler.
func (RoundRobin) Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error) {
	return listSchedule(job, topo, "round-robin", func(t *dataflow.Task, devs []*topology.ComputeDevice, i int) *topology.ComputeDevice {
		return devs[i%len(devs)]
	})
}

// listSchedule is the shared machinery of the naive baselines.
func listSchedule(job *dataflow.Job, topo *topology.Topology, policy string,
	pick func(*dataflow.Task, []*topology.ComputeDevice, int) *topology.ComputeDevice) (*Schedule, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	g, err := job.Graph()
	if err != nil {
		return nil, err
	}
	cs := topo.ComputeSet()
	cores := make([]time.Duration, cs.NumCores())
	s := &Schedule{Policy: policy, Tasks: make([]Assignment, g.Len())}
	for k, t := range g.Order {
		devs := eligible(t, cs)
		if len(devs) == 0 {
			return nil, fmt.Errorf("%w: %s wants %s", ErrNoDevice, t.ID(), t.Props().Compute)
		}
		c := pick(t, devs, k)
		core, start, finish := place(g, cs, s.Tasks, cores, k, c)
		cs.Cores(cores, c.Index())[core] = finish
		s.Tasks[k] = Assignment{Task: t.ID(), Compute: c.ID, Dev: c.Index(), Start: start, Finish: finish}
		if finish > s.Makespan {
			s.Makespan = finish
		}
	}
	return s, nil
}

// Validate checks a schedule against the job: every task assigned exactly
// once, precedence respected, and per-core capacity never exceeded.
func Validate(job *dataflow.Job, topo *topology.Topology, s *Schedule) error {
	if len(s.Tasks) != job.Len() {
		return fmt.Errorf("sched: %d assignments for %d tasks", len(s.Tasks), job.Len())
	}
	for _, t := range job.Tasks() {
		a, ok := s.Of(t.ID())
		if !ok {
			return fmt.Errorf("sched: task %s unassigned", t.ID())
		}
		if a.Finish < a.Start {
			return fmt.Errorf("sched: task %s finishes before it starts", t.ID())
		}
		c, ok := topo.Compute(a.Compute)
		if !ok {
			return fmt.Errorf("sched: task %s on unknown device %s", t.ID(), a.Compute)
		}
		if kind, restricted := t.Props().Compute.Kind(); restricted && c.Kind != kind {
			return fmt.Errorf("sched: task %s wants %s, got %s", t.ID(), t.Props().Compute, c.Kind)
		}
		for i, n := 0, t.NumPreds(); i < n; i++ {
			p := t.Pred(i)
			pa, _ := s.Of(p.ID())
			if a.Start < pa.Finish {
				return fmt.Errorf("sched: task %s starts before predecessor %s finishes", t.ID(), p.ID())
			}
		}
	}
	// Capacity: count overlapping tasks per device at each start instant.
	byDev := make(map[string][]Assignment)
	for _, a := range s.Tasks {
		byDev[a.Compute] = append(byDev[a.Compute], a)
	}
	for dev, as := range byDev {
		c, _ := topo.Compute(dev)
		for _, probe := range as {
			overlap := 0
			for _, other := range as {
				if other.Start <= probe.Start && probe.Start < other.Finish {
					overlap++
				}
			}
			if overlap > c.Cores {
				return fmt.Errorf("sched: %s runs %d tasks concurrently with %d cores", dev, overlap, c.Cores)
			}
		}
	}
	return nil
}
