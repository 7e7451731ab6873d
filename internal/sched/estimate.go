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
	"sync"
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

// planScratch is what planning one job computes on the way to its plan and
// does not keep: the mean execution times and upward ranks, HEFT's priority
// order and its core clocks. Plans are made per submission, by whoever admits
// it, so the buffers are recycled through planPool instead of allocated per
// plan (topology's view pool is the pattern).
type planScratch struct {
	dur  []time.Duration // meanExec, rank and cores, one block
	prio []int32
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// durations returns the scratch's duration block cut into three zeroed
// tables: two by rank and one by core.
func (sc *planScratch) durations(n, cores int) (meanExec, rank, clocks []time.Duration) {
	if cap(sc.dur) < 2*n+cores {
		sc.dur = make([]time.Duration, 2*n+cores)
	}
	sc.dur = sc.dur[:2*n+cores]
	clear(sc.dur)
	return sc.dur[:n:n], sc.dur[n : 2*n : 2*n], sc.dur[2*n:]
}

// upwardRanks computes the HEFT cost-model primitives shared by scheduling
// and estimation, indexed by rank: the job's graph, each task's mean
// execution time across its eligible devices, and each task's upward rank
// (critical-path length to a sink under mean costs). The tables, and the idle
// core clocks heft goes on to fill, are sc's: good until it goes back.
func upwardRanks(job *dataflow.Job, cs *topology.ComputeSet, sc *planScratch) (g *dataflow.Graph, meanExec, rank, cores []time.Duration, err error) {
	if g, err = job.Graph(); err != nil {
		return nil, nil, nil, nil, err
	}
	n := g.Len()
	meanExec, rank, cores = sc.durations(n, cs.NumCores())
	for k, t := range g.Order {
		devs := eligible(t, cs)
		if len(devs) == 0 {
			return nil, nil, nil, nil, fmt.Errorf("%w: %s wants %s", ErrNoDevice, t.ID(), t.Props().Compute)
		}
		var sum time.Duration
		for _, d := range devs {
			sum += execTime(t, d)
		}
		meanExec[k] = sum / time.Duration(len(devs))
	}
	// Upward ranks, computed in reverse topological order.
	for k := n - 1; k >= 0; k-- {
		// Mean communication: a representative cross-device figure.
		var meanComm time.Duration
		if b := g.Order[k].Props().OutputBytes; b > 0 {
			meanComm = time.Duration(float64(b) / 20e9 * float64(time.Second))
		}
		var max time.Duration
		for _, s := range g.Succs(k) {
			if v := meanComm + rank[s]; v > max {
				max = v
			}
		}
		rank[k] = meanExec[k] + max
	}
	return g, meanExec, rank, cores, nil
}

// EstimateJob prices a job on an idle topology with scheduler s (nil gives
// HEFT). The returned schedule is the plan the estimate is derived from —
// callers that go on to execute the job can reuse it instead of replanning,
// which is how the serving path keeps SLO admission from doubling the
// scheduling cost of every accepted submission. Under HEFT the estimate and
// the plan come from one pass over the cost model.
func EstimateJob(job *dataflow.Job, topo *topology.Topology, s Scheduler) (Estimate, *Schedule, error) {
	if s == nil {
		s = HEFT{}
	}
	if err := job.Validate(); err != nil {
		return Estimate{}, nil, err
	}
	cs := topo.ComputeSet()
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	g, meanExec, rank, cores, err := upwardRanks(job, cs, sc)
	if err != nil {
		return Estimate{}, nil, err
	}
	var schedule *Schedule
	if _, isHEFT := s.(HEFT); isHEFT {
		schedule = heft(g, cs, rank, cores, sc)
	} else if schedule, err = s.Schedule(job, topo); err != nil {
		return Estimate{}, nil, err
	}
	est := Estimate{Makespan: schedule.Makespan, Tasks: g.Len()}
	for k := range g.Order {
		est.TotalWork += meanExec[k]
		if rank[k] > est.CriticalPath {
			est.CriticalPath = rank[k]
		}
	}
	return est, schedule, nil
}
