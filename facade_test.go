package repro_test

// The facade test doubles as the "external adopter" check: everything a
// downstream user needs is reachable through the root package alone.

import (
	"context"
	"errors"
	"testing"

	"repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	rt, err := repro.NewRuntime(repro.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	job := repro.NewJob("facade")
	produce := job.Task("produce", repro.TaskProps{Ops: 1e5}, func(ctx repro.TaskCtx) error {
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		now, err := out.WriteAt(ctx.Now(), 0, []byte("via facade"))
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	consume := job.Task("consume", repro.TaskProps{Compute: repro.OnCPU, Ops: 1e5}, func(ctx repro.TaskCtx) error {
		buf := make([]byte, 10)
		now, err := ctx.Inputs()[0].ReadAt(ctx.Now(), 0, buf)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		if string(buf) != "via facade" {
			t.Errorf("payload = %q", buf)
		}
		return nil
	})
	produce.Then(consume)
	rep, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
	// The report's tables are nameable through the facade alone.
	var tr *repro.TaskReport = rep.Task("produce")
	var out repro.RegionPlacement = tr.Regions[0]
	var peak []repro.DeviceBytes = rep.PeakDeviceBytes
	var final []repro.TaskOutput = rep.FinalOutputs
	if out.Label != "out" || len(peak) == 0 || len(final) != 0 {
		t.Errorf("produce placed %v; peaks %v; final outputs %v", out, peak, final)
	}
	if rt.Regions().Live() != 0 {
		t.Error("regions leaked through the facade")
	}
}

func TestFacadeCustomAssembly(t *testing.T) {
	topo, err := repro.BuildSingleNode(repro.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	tel := repro.NewTelemetry()
	rt, err := repro.NewRuntime(repro.ExecConfig{
		Topology:  topo,
		Placer:    repro.NewBestFit(topo),
		Scheduler: repro.HEFT{},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := repro.NewJob("custom")
	job.Task("t", repro.TaskProps{Ops: 1e5, MemLatency: repro.LatencyLow}, func(ctx repro.TaskCtx) error {
		h, err := ctx.Scratch("ws", 4096)
		if err != nil {
			return err
		}
		_, err = h.WriteAt(ctx.Now(), 0, []byte{1})
		return err
	})
	if _, err := rt.Run(job); err != nil {
		t.Fatal(err)
	}
	if len(tel.Spans()) == 0 {
		t.Error("telemetry must observe the run")
	}
}

func TestFacadeConstantsAreTheRealOnes(t *testing.T) {
	if repro.PrivateScratch.String() != "Private Scratch" {
		t.Error("region class constants must alias the internal ones")
	}
	if repro.LatencyLow.Ceiling() <= 0 {
		t.Error("latency class constants must alias the internal ones")
	}
	if repro.OnGPU.String() != "GPU" {
		t.Error("device preferences must alias the internal ones")
	}
}

func TestFacadeServer(t *testing.T) {
	// The serving engine is fully drivable through the facade alone.
	srv, err := repro.NewServer(repro.ServerConfig{EpochWorkers: 2, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	job := repro.NewJob("facade-serve")
	job.Task("t", repro.TaskProps{Ops: 1e6, OutputBytes: 1 << 12}, nil).
		Then(job.Task("u", repro.TaskProps{Ops: 1e6}, nil))
	rep, err := srv.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("served makespan must be positive")
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), job); !errors.Is(err, repro.ErrServerClosed) {
		t.Errorf("err = %v, want repro.ErrServerClosed", err)
	}
}
