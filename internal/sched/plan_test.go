package sched_test

// The planners index their state by task rank and compute-device index. The
// planner they replaced kept it in maps keyed by task and device ID; it is
// kept here, written against the packages' public API only, as the reference
// the dense one must agree with assignment for assignment.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

type refAssignment struct {
	compute       string
	start, finish time.Duration
}

type refSchedule struct {
	asg      map[string]refAssignment
	makespan time.Duration
}

func refEligible(t *dataflow.Task, topo *topology.Topology) []*topology.ComputeDevice {
	if kind, ok := t.Props().Compute.Kind(); ok {
		return topo.ComputesByKind(kind)
	}
	return topo.Computes()
}

func refExecTime(t *dataflow.Task, c *topology.ComputeDevice) time.Duration {
	if t.Props().Ops <= 0 {
		return time.Microsecond
	}
	return time.Duration(t.Props().Ops / (c.Gops * 1e9) * float64(time.Second))
}

func refCommTime(topo *topology.Topology, from, to string, bytes int64) time.Duration {
	if from == to || bytes <= 0 {
		return 0
	}
	p, ok := topo.Path(from, to)
	if !ok {
		return time.Millisecond
	}
	return p.Latency + time.Duration(float64(bytes)/p.Bandwidth*float64(time.Second))
}

func refEarliest(cores []time.Duration) (int, time.Duration) {
	best, bestAt := 0, cores[0]
	for i, at := range cores {
		if at < bestAt {
			best, bestAt = i, at
		}
	}
	return best, bestAt
}

func refUpwardRanks(job *dataflow.Job, topo *topology.Topology) (order []*dataflow.Task, meanExec, rank map[*dataflow.Task]time.Duration, err error) {
	if order, err = job.TopoOrder(); err != nil {
		return nil, nil, nil, err
	}
	meanExec = make(map[*dataflow.Task]time.Duration, len(order))
	for _, t := range order {
		devs := refEligible(t, topo)
		if len(devs) == 0 {
			return nil, nil, nil, fmt.Errorf("%w: %s wants %s", sched.ErrNoDevice, t.ID(), t.Props().Compute)
		}
		var sum time.Duration
		for _, d := range devs {
			sum += refExecTime(t, d)
		}
		meanExec[t] = sum / time.Duration(len(devs))
	}
	rank = make(map[*dataflow.Task]time.Duration, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		var comm, max time.Duration
		if b := t.Props().OutputBytes; b > 0 {
			comm = time.Duration(float64(b) / 20e9 * float64(time.Second))
		}
		for _, s := range t.Succs() {
			if v := comm + rank[s]; v > max {
				max = v
			}
		}
		rank[t] = meanExec[t] + max
	}
	return order, meanExec, rank, nil
}

// refStates copies initial (device ID → per-core times; nil is idle) into
// fresh per-device core tables.
func refStates(topo *topology.Topology, initial map[string][]time.Duration) map[string][]time.Duration {
	states := make(map[string][]time.Duration)
	for _, c := range topo.Computes() {
		states[c.ID] = make([]time.Duration, c.Cores)
		copy(states[c.ID], initial[c.ID])
	}
	return states
}

// refPlace puts t on c: the placement step every planner shares.
func refPlace(topo *topology.Topology, s *refSchedule, states map[string][]time.Duration, t *dataflow.Task, c *topology.ComputeDevice) (int, refAssignment) {
	var ready time.Duration
	for _, p := range t.Preds() {
		pa := s.asg[p.ID()]
		if arr := pa.finish + refCommTime(topo, pa.compute, c.ID, p.Props().OutputBytes); arr > ready {
			ready = arr
		}
	}
	core, start := refEarliest(states[c.ID])
	if ready > start {
		start = ready
	}
	return core, refAssignment{compute: c.ID, start: start, finish: start + refExecTime(t, c)}
}

func (s *refSchedule) commit(states map[string][]time.Duration, t *dataflow.Task, core int, a refAssignment) {
	states[a.compute][core] = a.finish
	s.asg[t.ID()] = a
	if a.finish > s.makespan {
		s.makespan = a.finish
	}
}

func refHEFT(job *dataflow.Job, topo *topology.Topology, initial map[string][]time.Duration) (*refSchedule, error) {
	order, _, rank, err := refUpwardRanks(job, topo)
	if err != nil {
		return nil, err
	}
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
	states := refStates(topo, initial)
	s := &refSchedule{asg: make(map[string]refAssignment, len(order))}
	for _, t := range prio {
		bestCore := -1
		var best refAssignment
		for _, c := range refEligible(t, topo) {
			if core, a := refPlace(topo, s, states, t, c); bestCore < 0 || a.finish < best.finish {
				bestCore, best = core, a
			}
		}
		s.commit(states, t, bestCore, best)
	}
	return s, nil
}

func refList(job *dataflow.Job, topo *topology.Topology, pick func(devs []*topology.ComputeDevice, i int) *topology.ComputeDevice) (*refSchedule, error) {
	order, err := job.TopoOrder()
	if err != nil {
		return nil, err
	}
	states := refStates(topo, nil)
	s := &refSchedule{asg: make(map[string]refAssignment, len(order))}
	for i, t := range order {
		devs := refEligible(t, topo)
		if len(devs) == 0 {
			return nil, fmt.Errorf("%w: %s wants %s", sched.ErrNoDevice, t.ID(), t.Props().Compute)
		}
		core, a := refPlace(topo, s, states, t, pick(devs, i))
		s.commit(states, t, core, a)
	}
	return s, nil
}

func refEstimate(job *dataflow.Job, topo *topology.Topology) (sched.Estimate, error) {
	s, err := refHEFT(job, topo, nil)
	if err != nil {
		return sched.Estimate{}, err
	}
	order, meanExec, rank, _ := refUpwardRanks(job, topo)
	est := sched.Estimate{Makespan: s.makespan, Tasks: len(order)}
	for _, t := range order {
		est.TotalWork += meanExec[t]
		if rank[t] > est.CriticalPath {
			est.CriticalPath = rank[t]
		}
	}
	return est, nil
}

// agree fails unless got is want, assignment for assignment, listed in rank
// order with each device's dense index beside its ID.
func agree(t *testing.T, what string, job *dataflow.Job, topo *topology.Topology, got *sched.Schedule, want *refSchedule) {
	t.Helper()
	order, _ := job.Order()
	if len(got.Tasks) != len(order) || len(want.asg) != len(order) {
		t.Fatalf("%s %s: %d assignments, reference %d, tasks %d", what, job.Name(), len(got.Tasks), len(want.asg), len(order))
	}
	if got.Makespan != want.makespan {
		t.Fatalf("%s %s: makespan %v, reference %v", what, job.Name(), got.Makespan, want.makespan)
	}
	for k, a := range got.Tasks {
		w := want.asg[a.Task]
		if a.Task != order[k].ID() || a.Compute != w.compute || a.Start != w.start || a.Finish != w.finish {
			t.Fatalf("%s %s rank %d: %+v, reference %s %+v", what, job.Name(), k, a, order[k].ID(), w)
		}
		if c, ok := topo.Compute(a.Compute); !ok || c.Index() != a.Dev {
			t.Fatalf("%s %s rank %d: Dev %d is not %s's index", what, job.Name(), k, a.Dev, a.Compute)
		}
		if byID, ok := got.Of(a.Task); !ok || byID != a {
			t.Fatalf("%s %s: Of(%s) = %+v, %v; Tasks[%d] = %+v", what, job.Name(), a.Task, byID, ok, k, a)
		}
	}
}

// TestDensePlannerIsTheMapPlanner: on the serving mix — chains, fan-outs,
// diamonds, and the graph and DBMS jobs — every planner's dense form returns
// the plan of the map-keyed one, idle and against a busy machine, and
// EstimateJob its estimate.
func TestDensePlannerIsTheMapPlanner(t *testing.T) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	cs := topo.ComputeSet()
	for _, seed := range []int64{42, 7} {
		mix := workload.NewMix(workload.MixConfig{Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n < 2000; n++ {
			job := mix.Next()

			want, err := refHEFT(job, topo, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sched.HEFT{}.Schedule(job, topo)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, "HEFT idle", job, topo, got, want)

			// A busy machine: every core of every device held until a random
			// time, the same table in both forms.
			busy := make(map[string][]time.Duration)
			flat := make([]time.Duration, cs.NumCores())
			for i, c := range cs.Devices {
				busy[c.ID] = make([]time.Duration, c.Cores)
				for core := range busy[c.ID] {
					busy[c.ID][core] = time.Duration(rng.Intn(50)) * time.Microsecond
				}
				copy(cs.Cores(flat, i), busy[c.ID])
			}
			want, err = refHEFT(job, topo, busy)
			if err != nil {
				t.Fatal(err)
			}
			given := append([]time.Duration(nil), flat...)
			got, err = sched.HEFT{}.ScheduleLoaded(job, topo, flat)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, "HEFT loaded", job, topo, got, want)
			for i := range flat {
				if flat[i] != given[i] {
					t.Fatalf("ScheduleLoaded wrote core %d of the table it was given", i)
				}
			}

			want, _ = refList(job, topo, func(devs []*topology.ComputeDevice, i int) *topology.ComputeDevice { return devs[0] })
			got, err = sched.FIFO{}.Schedule(job, topo)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, "FIFO", job, topo, got, want)
			want, _ = refList(job, topo, func(devs []*topology.ComputeDevice, i int) *topology.ComputeDevice { return devs[i%len(devs)] })
			got, err = sched.RoundRobin{}.Schedule(job, topo)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, "round-robin", job, topo, got, want)

			wantEst, _ := refEstimate(job, topo)
			for _, s := range []sched.Scheduler{nil, sched.HEFT{}} {
				est, plan, err := sched.EstimateJob(job, topo, s)
				if err != nil {
					t.Fatal(err)
				}
				if est != wantEst {
					t.Fatalf("EstimateJob(%s) = %+v, reference %+v", job.Name(), est, wantEst)
				}
				if plan.Policy != "HEFT" || plan.Makespan != est.Makespan {
					t.Fatalf("EstimateJob(%s): plan %s with makespan %v under estimate %v", job.Name(), plan.Policy, plan.Makespan, est.Makespan)
				}
			}
			if est, plan, err := sched.EstimateJob(job, topo, sched.FIFO{}); err != nil || plan.Policy != "FIFO" ||
				est.Makespan != plan.Makespan || est.CriticalPath != wantEst.CriticalPath || est.TotalWork != wantEst.TotalWork {
				t.Fatalf("EstimateJob(%s, FIFO) = %+v, %v", job.Name(), est, err)
			}
		}
	}
}

// TestNoDeviceErrorText pins what a job sees when it asks for a device kind
// the machine does not have, from every planner and the estimator.
func TestNoDeviceErrorText(t *testing.T) {
	topo, err := topology.BuildSingleNode(topology.SingleNodeConfig{WithGPU: false})
	if err != nil {
		t.Fatal(err)
	}
	j := dataflow.NewJob("needs-gpu")
	j.Task("prep", dataflow.Props{Ops: 1}, nil).Then(j.Task("train", dataflow.Props{Compute: dataflow.OnGPU, Ops: 1}, nil))
	const want = "sched: no compute device satisfies the task's preference: train wants GPU"
	check := func(who string, err error) {
		t.Helper()
		if !errors.Is(err, sched.ErrNoDevice) || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", who, err, want)
		}
	}
	for _, s := range []sched.Scheduler{sched.HEFT{}, sched.FIFO{}, sched.RoundRobin{}} {
		_, err := s.Schedule(j, topo)
		check(s.Name(), err)
		_, _, err = sched.EstimateJob(j, topo, s)
		check("EstimateJob/"+s.Name(), err)
	}
	_, err = refHEFT(j, topo, nil)
	check("reference", err)
}

// BenchmarkEstimateJob is what SLO admission pays per submission: estimate
// and plan of the serving mix's nil-body jobs, cycled as the repository
// benchmark cycles its pool (so a job's graph is resolved once).
func BenchmarkEstimateJob(b *testing.B) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: -1})
	pool := make([]*dataflow.Job, 256)
	for i := range pool {
		pool[i] = mix.Next()
		if _, _, err := sched.EstimateJob(pool[i], topo, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.EstimateJob(pool[i%len(pool)], topo, nil); err != nil {
			b.Fatal(err)
		}
	}
}
