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
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/dataflow"
	"repro/internal/topology"
)

// Assignment is one task's scheduled placement.
type Assignment struct {
	Task    string
	Compute string
	Start   time.Duration
	Finish  time.Duration
}

// Schedule is a full plan for a job.
type Schedule struct {
	Policy      string
	Assignments map[string]Assignment
	Makespan    time.Duration
}

// Order returns task IDs sorted by scheduled start (ties by ID) — the
// execution order internal/core follows.
func (s *Schedule) Order() []string {
	ids := make([]string, 0, len(s.Assignments))
	for id := range s.Assignments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := s.Assignments[ids[a]], s.Assignments[ids[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return ids[a] < ids[b]
	})
	return ids
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

// eligible returns the compute devices a task may run on.
func eligible(t *dataflow.Task, topo *topology.Topology) []*topology.ComputeDevice {
	if kind, ok := t.Props().Compute.Kind(); ok {
		return topo.ComputesByKind(kind)
	}
	return topo.Computes()
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
func commTime(topo *topology.Topology, from, to string, bytes int64) time.Duration {
	if from == to || bytes <= 0 {
		return 0
	}
	p, ok := topo.Path(from, to)
	if !ok {
		return time.Millisecond // effectively discourages the pairing
	}
	xfer := time.Duration(float64(bytes) / p.Bandwidth * float64(time.Second))
	return p.Latency + xfer
}

// coreState tracks per-core availability for one compute device.
type coreState struct {
	cores []time.Duration
}

func newCoreState(c *topology.ComputeDevice, initial []time.Duration) *coreState {
	cores := make([]time.Duration, c.Cores)
	copy(cores, initial)
	return &coreState{cores: cores}
}

// earliest returns the index and free time of the first available core.
func (cs *coreState) earliest() (int, time.Duration) {
	best, bestAt := 0, cs.cores[0]
	for i, at := range cs.cores {
		if at < bestAt {
			best, bestAt = i, at
		}
	}
	return best, bestAt
}

// HEFT is the cost-model scheduler.
type HEFT struct{}

// Name implements Scheduler.
func (HEFT) Name() string { return "HEFT" }

// Schedule implements Scheduler.
func (h HEFT) Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error) {
	return h.ScheduleLoaded(job, topo, nil)
}

// ScheduleLoaded plans the job onto a machine that is already busy:
// initial[device] gives per-core times before which nothing can start —
// how the runtime packs concurrently submitted jobs across the cluster.
func (HEFT) ScheduleLoaded(job *dataflow.Job, topo *topology.Topology, initial map[string][]time.Duration) (*Schedule, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	order, _, rank, err := upwardRanks(job, topo)
	if err != nil {
		return nil, err
	}
	// Priority: rank descending (ties by topological position for
	// determinism and dependency safety).
	pos := make(map[*dataflow.Task]int, len(order))
	for i, t := range order {
		pos[t] = i
	}
	prio := append([]*dataflow.Task(nil), order...)
	sort.SliceStable(prio, func(a, b int) bool {
		if rank[prio[a]] != rank[prio[b]] {
			return rank[prio[a]] > rank[prio[b]]
		}
		return pos[prio[a]] < pos[prio[b]]
	})

	states := make(map[string]*coreState)
	for _, c := range topo.Computes() {
		states[c.ID] = newCoreState(c, initial[c.ID])
	}
	asg := make(map[string]Assignment, len(order))
	placedOn := make(map[*dataflow.Task]string, len(order))
	var makespan time.Duration
	for _, t := range prio {
		bestDev, bestCore := "", -1
		var bestStart, bestFinish time.Duration
		for _, c := range eligible(t, topo) {
			// Ready time: all predecessor outputs delivered to c.
			var ready time.Duration
			for i, n := 0, t.NumPreds(); i < n; i++ {
				p := t.Pred(i)
				pa := asg[p.ID()]
				arr := pa.Finish + commTime(topo, placedOn[p], c.ID, p.Props().OutputBytes)
				if arr > ready {
					ready = arr
				}
			}
			core, free := states[c.ID].earliest()
			start := ready
			if free > start {
				start = free
			}
			finish := start + execTime(t, c)
			if bestDev == "" || finish < bestFinish {
				bestDev, bestCore, bestStart, bestFinish = c.ID, core, start, finish
			}
		}
		states[bestDev].cores[bestCore] = bestFinish
		asg[t.ID()] = Assignment{Task: t.ID(), Compute: bestDev, Start: bestStart, Finish: bestFinish}
		placedOn[t] = bestDev
		if bestFinish > makespan {
			makespan = bestFinish
		}
	}
	return &Schedule{Policy: "HEFT", Assignments: asg, Makespan: makespan}, nil
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
	order, err := job.Order()
	if err != nil {
		return nil, err
	}
	states := make(map[string]*coreState)
	for _, c := range topo.Computes() {
		states[c.ID] = newCoreState(c, nil)
	}
	asg := make(map[string]Assignment, len(order))
	placedOn := make(map[*dataflow.Task]string, len(order))
	var makespan time.Duration
	for i, t := range order {
		devs := eligible(t, topo)
		if len(devs) == 0 {
			return nil, fmt.Errorf("%w: %s wants %s", ErrNoDevice, t.ID(), t.Props().Compute)
		}
		c := pick(t, devs, i)
		var ready time.Duration
		for i, n := 0, t.NumPreds(); i < n; i++ {
			p := t.Pred(i)
			pa := asg[p.ID()]
			arr := pa.Finish + commTime(topo, placedOn[p], c.ID, p.Props().OutputBytes)
			if arr > ready {
				ready = arr
			}
		}
		core, free := states[c.ID].earliest()
		start := ready
		if free > start {
			start = free
		}
		finish := start + execTime(t, c)
		states[c.ID].cores[core] = finish
		asg[t.ID()] = Assignment{Task: t.ID(), Compute: c.ID, Start: start, Finish: finish}
		placedOn[t] = c.ID
		if finish > makespan {
			makespan = finish
		}
	}
	return &Schedule{Policy: policy, Assignments: asg, Makespan: makespan}, nil
}

// Validate checks a schedule against the job: every task assigned exactly
// once, precedence respected, and per-core capacity never exceeded.
func Validate(job *dataflow.Job, topo *topology.Topology, s *Schedule) error {
	if len(s.Assignments) != job.Len() {
		return fmt.Errorf("sched: %d assignments for %d tasks", len(s.Assignments), job.Len())
	}
	for _, t := range job.Tasks() {
		a, ok := s.Assignments[t.ID()]
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
			pa := s.Assignments[p.ID()]
			if a.Start < pa.Finish {
				return fmt.Errorf("sched: task %s starts before predecessor %s finishes", t.ID(), p.ID())
			}
		}
	}
	// Capacity: count overlapping tasks per device at each start instant.
	byDev := make(map[string][]Assignment)
	for _, a := range s.Assignments {
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

// Ranks returns every task's deterministic execution rank — its index in
// the job's topological order (Kahn's algorithm with insertion-index
// tie-breaking, so the result is stable run-to-run). The wavefront executor
// uses the rank as the global tie-breaker wherever two ready tasks contend
// for the same virtual core, which is what keeps parallel dispatch
// byte-for-byte deterministic. The order itself (dataflow.Job.Order: shared,
// read-only) is returned alongside.
func Ranks(job *dataflow.Job) (map[string]int, []*dataflow.Task, error) {
	order, err := job.Order()
	if err != nil {
		return nil, nil, err
	}
	ranks := make(map[string]int, len(order))
	for i, t := range order {
		ranks[t.ID()] = i
	}
	return ranks, order, nil
}

// PredCounts returns every task's unmet-predecessor count — the wavefront
// executor's initial ready-set state: tasks with a zero count are
// immediately dispatchable.
func PredCounts(job *dataflow.Job) map[string]int {
	counts := make(map[string]int, job.Len())
	for _, t := range job.Tasks() {
		counts[t.ID()] = t.NumPreds()
	}
	return counts
}
