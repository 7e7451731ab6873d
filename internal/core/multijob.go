package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/topology"
)

// This file adds concurrent multi-job execution — the deployment shape the
// paper targets ("dataflow systems that serve thousands of jobs in parallel
// on such complex hardware landscapes", §2.1) and the reason the RTS must
// "optimize for concurrently running jobs" (§3, challenges 1-3).
//
// Jobs are scheduled independently (each gets its own HEFT plan) but
// *execute* against shared compute cores and shared memory devices: core
// slots serialize tasks, device service queues serialize transfers, and
// the placement optimizer sees the other jobs' allocations through device
// free-capacity. Contention is therefore emergent, not modeled.
//
// RunAll is the *virtual-contention* multi-job mode: members run
// job-after-job, each queueing behind the backlog its predecessors absorbed
// into the shared epoch, so interference (stretch) is observable in the
// reports. A Server batch makes the opposite trade — overlapped wall-clock
// execution with virtual isolation per member (see server.go). Both are
// callers of the same drive loop (exec.go); they differ in what they make
// their members share before calling it.

// JobResult pairs a job's report with isolation diagnostics.
type JobResult struct {
	Report *Report
	// Stretch is this job's concurrent makespan divided by its makespan
	// when run alone on an identical testbed — the interference factor.
	// Only set when ComputeStretch was requested.
	Stretch float64
}

// MultiReport is the outcome of RunAll.
type MultiReport struct {
	Jobs map[string]*JobResult
	// Makespan is the finish time of the last task across all jobs.
	Makespan time.Duration
	// SumIsolated is the sum of isolated makespans (sequential baseline);
	// only set when ComputeStretch was requested.
	SumIsolated time.Duration
}

// String renders a per-job summary.
func (m *MultiReport) String() string {
	names := make([]string, 0, len(m.Jobs))
	for n := range m.Jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%d jobs, combined makespan %v\n", len(m.Jobs), m.Makespan)
	for _, n := range names {
		jr := m.Jobs[n]
		out += fmt.Sprintf("  %-16s makespan %12v", n, jr.Report.Makespan)
		if jr.Stretch > 0 {
			out += fmt.Sprintf("  stretch %.2f×", jr.Stretch)
		}
		out += "\n"
	}
	return out
}

// MultiConfig tunes RunAll.
type MultiConfig struct {
	// ComputeStretch additionally runs every job alone on a fresh default
	// testbed to report per-job interference factors. Costs one extra run
	// per job.
	ComputeStretch bool
}

// scheduleInto plans one job against load, the flat per-core table of when
// previously admitted jobs leave each core free, and folds the new plan back
// into it — how RunAll packs concurrently submitted jobs across the cluster.
// A load-aware scheduler is used when available.
func (rt *Runtime) scheduleInto(j *dataflow.Job, load []time.Duration) (*sched.Schedule, error) {
	loadAware, _ := rt.sched.(interface {
		ScheduleLoaded(*dataflow.Job, *topology.Topology, []time.Duration) (*sched.Schedule, error)
	})
	var schedule *sched.Schedule
	var err error
	if loadAware != nil {
		schedule, err = loadAware.ScheduleLoaded(j, rt.topo, load)
	} else {
		schedule, err = rt.sched.Schedule(j, rt.topo)
	}
	if err != nil {
		return nil, err
	}
	// Fold in rank order: each finish lands on the device's then-earliest
	// core, so the order of the fold decides which core holds which finish.
	cs := rt.topo.ComputeSet()
	for _, a := range schedule.Tasks {
		cores := cs.Cores(load, a.Dev)
		idx := 0
		for i := range cores {
			if cores[i] < cores[idx] {
				idx = i
			}
		}
		if a.Finish > cores[idx] {
			cores[idx] = a.Finish
		}
	}
	return schedule, nil
}

// RunAll executes several jobs concurrently on this runtime's shared
// topology. Job names must be unique (they namespace region owners and
// job-level globals).
func (rt *Runtime) RunAll(jobs []*dataflow.Job, cfg MultiConfig) (*MultiReport, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j == nil {
			return nil, fmt.Errorf("core: nil job")
		}
		if seen[j.Name()] {
			return nil, fmt.Errorf("core: duplicate job name %q", j.Name())
		}
		seen[j.Name()] = true
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("core: job %s: %w", j.Name(), err)
		}
	}

	// One fresh virtual-time epoch shared by every job below — contention
	// between the jobs is the point; isolation from *other* batches and
	// concurrent Runs comes from the epoch being private to this call.
	epoch := rt.topo.NewEpoch()
	// Shared core availability across all jobs, and the planner's estimate
	// of it.
	nCores := rt.topo.ComputeSet().NumCores()
	cores, load := make([]time.Duration, nCores), make([]time.Duration, nCores)
	runs := make([]*run, 0, len(jobs))
	for _, j := range jobs {
		schedule, err := rt.scheduleInto(j, load)
		if err != nil {
			return nil, fmt.Errorf("core: scheduling %s: %w", j.Name(), err)
		}
		g, err := j.Graph()
		if err != nil {
			return nil, err
		}
		runs = append(runs, rt.newRun(j, g, schedule, epoch, j.Name(), cores))
	}

	// One drive call per job, in admission order, each over the shared core
	// clocks: a completed job's clock views are absorbed into the shared
	// epoch before the next call seeds from it, so later jobs queue behind its
	// device backlog — contention stays emergent and deterministic.
	for _, r := range runs {
		if _, err := rt.driveOne(epoch, nil, r); err != nil {
			return nil, err
		}
	}

	out := &MultiReport{Jobs: make(map[string]*JobResult, len(runs))}
	for _, r := range runs {
		if r.report.Makespan > out.Makespan {
			out.Makespan = r.report.Makespan
		}
		out.Jobs[r.job.Name()] = &JobResult{Report: r.report}
	}

	if cfg.ComputeStretch {
		for i, j := range jobs {
			iso, err := New(ExecConfig{Scheduler: rt.sched})
			if err != nil {
				return nil, err
			}
			rep, err := iso.Run(j)
			if err != nil {
				return nil, fmt.Errorf("core: isolated baseline for %s: %w", j.Name(), err)
			}
			out.SumIsolated += rep.Makespan
			if rep.Makespan > 0 {
				out.Jobs[j.Name()].Stretch = float64(runs[i].report.Makespan) / float64(rep.Makespan)
			}
		}
	}
	return out, nil
}
