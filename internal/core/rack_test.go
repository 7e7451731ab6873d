package core

import (
	"fmt"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Rack-scale integration: jobs running on the multi-node Figure 1b
// topology, where compute nodes reach each other's DRAM and the pooled
// far-memory nodes only over the fabric.

func rackRuntime(t *testing.T, nodes, memNodes int) *Runtime {
	t.Helper()
	topo, err := topology.BuildRack(nodes, memNodes)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(ExecConfig{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRackRunsCPUWorkloads(t *testing.T) {
	rt := rackRuntime(t, 4, 2)
	for _, job := range []*dataflow.Job{
		workload.DBMS(workload.DefaultDBMS()),
		workload.HPC(workload.DefaultHPC()),
		workload.StreamWindow(workload.DefaultStream(), 0),
	} {
		rep, err := rt.Run(job)
		if err != nil {
			t.Fatalf("%s on rack: %v", job.Name(), err)
		}
		if rep.Makespan <= 0 {
			t.Errorf("%s: zero makespan", job.Name())
		}
		if rt.Regions().Live() != 0 {
			t.Fatalf("%s leaked %d regions", job.Name(), rt.Regions().Live())
		}
	}
}

func TestRackSpreadsConcurrentJobs(t *testing.T) {
	// Jobs wide enough to saturate a node must spread across the rack:
	// each has 24 parallel heavy tasks; 8 jobs ≫ one node's 32 cores.
	rt := rackRuntime(t, 4, 2)
	var jobs []*dataflow.Job
	for i := 0; i < 8; i++ {
		j := dataflow.NewJob(fmt.Sprintf("batch-%d", i))
		for k := 0; k < 24; k++ {
			j.Task(fmt.Sprintf("crunch-%02d", k), dataflow.Props{Ops: 1e9}, nil)
		}
		jobs = append(jobs, j)
	}
	rep, err := rt.RunAll(jobs, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, jr := range rep.Jobs {
		for _, tr := range jr.Report.Tasks {
			used[tr.Compute] = true
		}
	}
	if len(used) < 2 {
		t.Errorf("8 jobs used only %d rack nodes: %v", len(used), used)
	}
}

func TestRackCrossNodeTransfer(t *testing.T) {
	// Pin a producer to one node's view and let the consumer be scheduled
	// anywhere: the transfer must work across the fabric (migration path).
	rt := rackRuntime(t, 2, 1)
	j := dataflow.NewJob("cross")
	payload := []byte("bytes over the fabric")
	a := j.Task("produce", dataflow.Props{Ops: 1e6, OutputBytes: 4096}, func(ctx dataflow.Ctx) error {
		out, err := ctx.Output(4096)
		if err != nil {
			return err
		}
		f := out.WriteAsync(ctx.Now(), 0, payload)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	b := j.Task("consume", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
		in := ctx.Inputs()[0]
		got := make([]byte, len(payload))
		f := in.ReadAsync(ctx.Now(), 0, got)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		if string(got) != string(payload) {
			return fmt.Errorf("cross-node payload = %q", got)
		}
		return nil
	})
	a.Then(b)
	if _, err := rt.Run(j); err != nil {
		t.Fatal(err)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestRackFarMemoryReachableFromAllNodes(t *testing.T) {
	rt := rackRuntime(t, 4, 2)
	topo := rt.Topology()
	for n := 0; n < 4; n++ {
		cpu := fmt.Sprintf("rack/node%d/cpu0", n)
		for m := 0; m < 2; m++ {
			far := fmt.Sprintf("rack/memnode%d/far0", m)
			caps, ok := topo.EffectiveCaps(cpu, far)
			if !ok {
				t.Fatalf("%s cannot reach %s", cpu, far)
			}
			if !caps.Remote || caps.Sync {
				t.Errorf("far memory from %s must be remote+async", cpu)
			}
		}
	}
}
