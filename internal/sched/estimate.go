package sched

// Pre-execution cost estimation. SLO-aware admission (core.SLOPolicy) prices
// every submission before committing a queue slot: the scheduler's makespan
// prediction — the same figure HEFT optimizes — becomes the service-time
// input of the admission queue model, and the critical path is the floor no
// amount of capacity can beat. Keeping the estimator in this package keeps
// the prediction and the plan consistent: whatever cost model the scheduler
// uses to place tasks is the cost model admission judges deadlines with.

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/topology"
)

// Estimate is the scheduler's prediction for one job on an idle testbed.
type Estimate struct {
	// Makespan is the planned completion time of the job's last task — the
	// service-time estimate SLO admission feeds its queue model.
	Makespan time.Duration
	// CriticalPath is the longest dependency chain under mean execution and
	// communication costs — the latency floor regardless of capacity. A
	// deadline below this is infeasible even on an idle machine.
	CriticalPath time.Duration
	// TotalWork is the sum of per-task mean execution times — the capacity
	// the job consumes, which bounds sustainable admission rate.
	TotalWork time.Duration
	// Tasks is the job's task count.
	Tasks int
}

// upwardRanks computes the HEFT cost-model primitives shared by scheduling
// and estimation: the topological order, each task's mean execution time
// across its eligible devices, and each task's upward rank (critical-path
// length to a sink under mean costs).
func upwardRanks(job *dataflow.Job, topo *topology.Topology) ([]*dataflow.Task, map[*dataflow.Task]time.Duration, map[*dataflow.Task]time.Duration, error) {
	order, err := job.Order()
	if err != nil {
		return nil, nil, nil, err
	}
	meanExec := make(map[*dataflow.Task]time.Duration, len(order))
	for _, t := range order {
		devs := eligible(t, topo)
		if len(devs) == 0 {
			return nil, nil, nil, fmt.Errorf("%w: %s wants %s", ErrNoDevice, t.ID(), t.Props().Compute)
		}
		var sum time.Duration
		for _, d := range devs {
			sum += execTime(t, d)
		}
		meanExec[t] = sum / time.Duration(len(devs))
	}
	// Mean communication: a representative cross-device figure.
	meanComm := func(t *dataflow.Task) time.Duration {
		b := t.Props().OutputBytes
		if b <= 0 {
			return 0
		}
		return time.Duration(float64(b) / 20e9 * float64(time.Second))
	}
	// Upward ranks, computed in reverse topological order.
	rank := make(map[*dataflow.Task]time.Duration, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		var max time.Duration
		for i, n := 0, t.NumSuccs(); i < n; i++ {
			v := meanComm(t) + rank[t.Succ(i)]
			if v > max {
				max = v
			}
		}
		rank[t] = meanExec[t] + max
	}
	return order, meanExec, rank, nil
}

// EstimateJob prices a job on an idle topology with scheduler s (nil gives
// HEFT). The returned schedule is the plan the estimate is derived from —
// callers that go on to execute the job can reuse it instead of replanning,
// which is how the serving path keeps SLO admission from doubling the
// scheduling cost of every accepted submission.
func EstimateJob(job *dataflow.Job, topo *topology.Topology, s Scheduler) (Estimate, *Schedule, error) {
	if s == nil {
		s = HEFT{}
	}
	schedule, err := s.Schedule(job, topo)
	if err != nil {
		return Estimate{}, nil, err
	}
	order, meanExec, rank, err := upwardRanks(job, topo)
	if err != nil {
		return Estimate{}, nil, err
	}
	est := Estimate{Makespan: schedule.Makespan, Tasks: len(order)}
	for _, t := range order {
		est.TotalWork += meanExec[t]
		if rank[t] > est.CriticalPath {
			est.CriticalPath = rank[t]
		}
	}
	return est, schedule, nil
}
