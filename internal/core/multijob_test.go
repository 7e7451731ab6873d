package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/memsim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/workload"
)

func dbmsNamed(name string) *dataflow.Job {
	// The workload builders fix the job name; clone the DAG under a new
	// name by rebuilding with distinct configs is overkill — wrap instead.
	j := workload.DBMS(workload.DefaultDBMS())
	renamed := dataflow.NewJob(name)
	clone := map[string]*dataflow.Task{}
	for _, t := range j.Tasks() {
		clone[t.ID()] = renamed.Task(t.ID(), t.Props(), t.Fn())
	}
	for _, t := range j.Tasks() {
		for _, s := range t.Succs() {
			clone[t.ID()].Then(clone[s.ID()])
		}
	}
	return renamed
}

func TestRunAllValidation(t *testing.T) {
	rt := newRuntime(t)
	if _, err := rt.RunAll(nil); err == nil {
		t.Error("empty job list must fail")
	}
	if _, err := rt.RunAll([]*dataflow.Job{nil}); err == nil {
		t.Error("nil job must fail")
	}
	j := workload.HPC(workload.DefaultHPC())
	if _, err := rt.RunAll([]*dataflow.Job{j, j}); err == nil {
		t.Error("duplicate job names must fail")
	}
}

func TestRunAllMixedWorkloads(t *testing.T) {
	rt := newRuntime(t)
	jobs := []*dataflow.Job{
		workload.Hospital(workload.DefaultHospital()),
		workload.DBMS(workload.DefaultDBMS()),
		workload.ML(workload.DefaultML()),
	}
	rep, err := rt.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("job results = %d", len(rep.Jobs))
	}
	// Concurrency: the combined makespan beats running jobs back to back.
	if rep.Makespan >= rep.SumIsolated {
		t.Errorf("concurrent makespan %v must beat sequential %v", rep.Makespan, rep.SumIsolated)
	}
	// Interference: nobody runs faster concurrently than alone.
	for name, jr := range rep.Jobs {
		if jr.Stretch < 0.99 {
			t.Errorf("%s stretch %.2f < 1 — concurrent run cannot beat isolation", name, jr.Stretch)
		}
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
	s := rep.String()
	if !strings.Contains(s, "hospital") || !strings.Contains(s, "stretch") {
		t.Errorf("summary missing fields:\n%s", s)
	}
}

func TestRunAllSameWorkloadContends(t *testing.T) {
	// 6 copies of the same CPU-heavy query must interfere: combined
	// makespan above any single isolated run.
	rt := newRuntime(t)
	var jobs []*dataflow.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, dbmsNamed(fmt.Sprintf("dbms-%d", i)))
	}
	rep, err := rt.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	solo := newRuntime(t)
	soloRep, err := solo.Run(dbmsNamed("dbms-solo"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan < soloRep.Makespan {
		t.Errorf("6-way concurrent makespan %v cannot beat one isolated run %v", rep.Makespan, soloRep.Makespan)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestRunAllFailureCleansAllJobs(t *testing.T) {
	rt := newRuntime(t)
	boom := errors.New("boom")
	bad := dataflow.NewJob("bad")
	bad.Task("explode", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		if _, err := ctx.Scratch("tmp", 4096); err != nil {
			return err
		}
		return boom
	})
	good := workload.HPC(workload.DefaultHPC())
	_, err := rt.RunAll([]*dataflow.Job{good, bad})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("failure leaked %d regions", rt.Regions().Live())
	}
}

func TestRunAllDeterministic(t *testing.T) {
	run := func() *MultiReport {
		rt := newRuntime(t)
		jobs := []*dataflow.Job{
			workload.DBMS(workload.DefaultDBMS()),
			workload.StreamWindow(workload.DefaultStream(), 0),
		}
		rep, err := rt.RunAll(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic combined makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	for name, jr := range a.Jobs {
		if b.Jobs[name].Report.Makespan != jr.Report.Makespan {
			t.Errorf("%s makespan differs across runs", name)
		}
	}
}

func BenchmarkRunAllJobMix(b *testing.B) {
	rt, err := New(ExecConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := []*dataflow.Job{
			workload.Hospital(workload.DefaultHospital()),
			workload.DBMS(workload.DefaultDBMS()),
			workload.StreamWindow(workload.DefaultStream(), 0),
		}
		if _, err := rt.RunAll(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunAllCarriesBacklogJobToJob pins what RunAll alone among the entry
// points does: a finished job's device backlog carries into the next job's
// clock. Two one-task jobs run on disjoint compute devices and meet only at
// the one memory device both write to, so the second job's write queues behind
// the first's there — its makespan in the pair exceeds its makespan alone, by
// no more than the first job's write takes.
func TestRunAllCarriesBacklogJobToJob(t *testing.T) {
	const size = 1 << 20
	build := func() *Runtime {
		topo := topology.New()
		for _, c := range []*topology.ComputeDevice{
			{ID: "cpu", Kind: topology.CPU, Gops: 100, Cores: 1},
			{ID: "gpu", Kind: topology.GPU, Gops: 100, Cores: 1},
		} {
			if err := topo.AddCompute(c); err != nil {
				t.Fatal(err)
			}
		}
		mem, err := memsim.NewDevice("mem", memsim.DRAMSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.AddMemory(mem); err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{"cpu", "gpu"} {
			if err := topo.Connect(topology.Link{A: c, B: "mem", Kind: topology.LinkMemBus, Latency: 10 * time.Nanosecond, Bandwidth: 200e9, Coherent: true}); err != nil {
				t.Fatal(err)
			}
		}
		rt, err := New(ExecConfig{Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	writer := func(name string, on dataflow.DevicePref) *dataflow.Job {
		j := dataflow.NewJob(name)
		j.Task("write", dataflow.Props{Compute: on, Ops: 1}, func(ctx dataflow.Ctx) error {
			h, err := ctx.Scratch("buf", size)
			if err != nil {
				return err
			}
			now, err := h.WriteAt(ctx.Now(), 0, make([]byte, size))
			if err != nil {
				return err
			}
			ctx.Wait(now)
			return nil
		})
		return j
	}
	soloA, err := build().Run(writer("a", dataflow.OnCPU))
	if err != nil {
		t.Fatal(err)
	}
	soloB, err := build().Run(writer("b", dataflow.OnGPU))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := build().RunAll([]*dataflow.Job{writer("a", dataflow.OnCPU), writer("b", dataflow.OnGPU)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair.Jobs["a"].Report, pair.Jobs["b"].Report
	for _, c := range []struct {
		rep     *Report
		compute string
	}{{a, "cpu"}, {b, "gpu"}} {
		if tr := c.rep.Task("write"); tr.Compute != c.compute || tr.Region("buf") != "mem" {
			t.Fatalf("%s ran on %s writing %s, want %s writing mem", c.rep.Job, tr.Compute, tr.Region("buf"), c.compute)
		}
	}
	if a.Makespan != soloA.Makespan {
		t.Errorf("first job's makespan %v in the pair, %v alone: nothing runs before it", a.Makespan, soloA.Makespan)
	}
	if b.Makespan <= soloB.Makespan || b.Makespan > soloB.Makespan+soloA.Makespan {
		t.Errorf("second job's makespan %v in the pair, %v alone: it must queue behind the first job's %v of backlog", b.Makespan, soloB.Makespan, soloA.Makespan)
	}
}

// TestLoneJobStretchIsOne: RunAll prices each job's Stretch against the same
// job run alone on the same machine with the same placer and scheduler, so a
// lone job's stretch is exactly 1 — on a rack as on the default testbed, and
// under worst-fit placement as under best-fit.
func TestLoneJobStretchIsOne(t *testing.T) {
	rack, err := topology.BuildRack(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]ExecConfig{
		"rack":      {Topology: rack},
		"worst-fit": {Topology: single, Placer: placement.NewWorst(single)},
	} {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []*dataflow.Job{workload.DBMS(workload.DefaultDBMS()), workload.HPC(workload.DefaultHPC())} {
			rep, err := rt.RunAll([]*dataflow.Job{j})
			if err != nil {
				t.Fatal(err)
			}
			jr := rep.Jobs[j.Name()]
			if jr.Stretch != 1 || rep.SumIsolated != jr.Report.Makespan {
				t.Errorf("%s: lone %s stretch %v, isolated %v, makespan %v; want stretch 1",
					name, j.Name(), jr.Stretch, rep.SumIsolated, jr.Report.Makespan)
			}
		}
	}
}
