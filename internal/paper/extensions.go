package paper

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/placement"
	"repro/internal/planner"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/topology"
)

// These four artifacts quantify the extension features DESIGN.md §5 calls
// out beyond the paper's figures: hotness-driven tiering (A4), the access-
// plan compiler (A5), concurrent multi-job serving (A6), and checkpointed
// recovery (A7). They are ablations of the runtime's own design choices.

// AblationTiering contrasts a skewed region workload with and without the
// background rebalancer (TPP [40]-style promotion of hot regions).
func AblationTiering() (*Artifact, error) {
	run := func(tiering bool) (time.Duration, int, error) {
		topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
		if err != nil {
			return 0, 0, err
		}
		mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
		if err != nil {
			return 0, 0, err
		}
		clk := topo.NewTaskView() // the reads and the sweeps' migrations queue on one clock
		// 16 regions stranded in far memory; 2 of them take 90% of traffic.
		var handles []*region.Handle
		for i := 0; i < 16; i++ {
			h, err := mgr.Alloc(region.Spec{
				Name: fmt.Sprintf("obj%d", i), Class: props.Custom, Size: 64 << 10,
				Req:   props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
				Owner: region.Owner(fmt.Sprintf("t%d", i)), Compute: "node0/cpu0",
				Device: "memnode0/far0", Clock: clk,
			})
			if err != nil {
				return 0, 0, err
			}
			handles = append(handles, h)
		}
		defer func() {
			for _, h := range handles {
				h.Release() //nolint:errcheck // teardown
			}
		}()
		buf := make([]byte, 4096)
		var now time.Duration
		promoted := 0
		state := uint64(3)
		for i := 0; i < 2000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			idx := 0
			if (state>>33)%10 < 9 {
				idx = int((state >> 10) % 2) // hot pair
			} else {
				idx = int((state >> 10) % 16)
			}
			f := handles[idx].ReadAsync(now, 0, buf)
			done, err := f.Await(now)
			if err != nil {
				return 0, 0, err
			}
			now = done
			if tiering && i%250 == 249 {
				stats, err := mgr.RebalanceIn(clk, now, region.RebalancePolicy{})
				if err != nil {
					return 0, 0, err
				}
				now += stats.Cost
				promoted += stats.Promoted
			}
		}
		return now, promoted, nil
	}
	off, _, err := run(false)
	if err != nil {
		return nil, err
	}
	on, promoted, err := run(true)
	if err != nil {
		return nil, err
	}
	speedup := float64(off) / float64(on)
	tbl := &table{header: []string{"Mode", "2000 skewed reads", "Promotions", "Speedup"}}
	tbl.add("static placement", fmtDur(float64(off)), "0", "1.0×")
	tbl.add("hotness-driven tiering", fmtDur(float64(on)), fmt.Sprintf("%d", promoted), fmt.Sprintf("%.1f×", speedup))
	return &Artifact{
		ID:    "ablation-tiering",
		Title: "Ablation A4: background region tiering (TPP-style promotion) on a skewed working set",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"static_ns": float64(off), "tiered_ns": float64(on),
			"speedup": speedup, "promotions": float64(promoted),
		},
	}, nil
}

// AblationPlanner contrasts the compiled access plan against fixed
// strategies on near and far placements (challenge 7).
func AblationPlanner() (*Artifact, error) {
	tbl := &table{header: []string{"Placement", "Fixed sync (d=1)", "Fixed async (d=8)", "Compiled plan", "Plan"}}
	metrics := map[string]float64{}
	spec := planner.AccessSpec{TotalBytes: 512 << 10, ChunkBytes: 4096, OverlapOpsPerChunk: 500}
	for _, device := range []string{"node0/dram0", "node0/cxl0", "memnode0/far0"} {
		measure := func(depthOverride int) (time.Duration, planner.Plan, error) {
			topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
			if err != nil {
				return 0, planner.Plan{}, err
			}
			mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
			if err != nil {
				return 0, planner.Plan{}, err
			}
			h, err := mgr.Alloc(region.Spec{
				Name: "scan", Class: props.Custom, Size: spec.TotalBytes,
				Req:   props.Requirements{Latency: props.LatencyBulk, ByteAddr: props.Require},
				Owner: "a5", Compute: "node0/cpu0", Device: device, Clock: topo.NewTaskView(),
			})
			if err != nil {
				return 0, planner.Plan{}, err
			}
			defer h.Release() //nolint:errcheck // teardown
			plan, err := planner.Compile(topo, "node0/cpu0", device, spec)
			if err != nil {
				return 0, planner.Plan{}, err
			}
			if depthOverride > 0 {
				plan.Depth = depthOverride
				plan.Async = depthOverride > 1
			}
			end, err := planner.Execute(h, 0, plan, spec, nil)
			return end, plan, err
		}
		d1, _, err := measure(1)
		if err != nil {
			return nil, err
		}
		d8, _, err := measure(8)
		if err != nil {
			return nil, err
		}
		chosen, plan, err := measure(0)
		if err != nil {
			return nil, err
		}
		tbl.add(device, fmtDur(float64(d1)), fmtDur(float64(d8)), fmtDur(float64(chosen)), plan.String())
		metrics["d1_ns/"+device] = float64(d1)
		metrics["d8_ns/"+device] = float64(d8)
		metrics["plan_ns/"+device] = float64(chosen)
	}
	return &Artifact{
		ID:    "ablation-planner",
		Title: "Ablation A5 (challenge 7): compiling declarative access specs into per-placement plans",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}

// AblationMultiJob measures concurrent serving of a batch-job mix vs
// running the same jobs back to back: six 16-way compute jobs with mixed
// device preferences share one runtime.
func AblationMultiJob() (*Artifact, error) {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		return nil, err
	}
	mkBatch := func(name string, pref dataflow.DevicePref) *dataflow.Job {
		j := dataflow.NewJob(name)
		src := j.Task("scatter", dataflow.Props{Ops: 1e6, OutputBytes: 1 << 14}, nil)
		sink := j.Task("gather", dataflow.Props{Ops: 1e6}, nil)
		for k := 0; k < 16; k++ {
			t := j.Task(fmt.Sprintf("work%02d", k), dataflow.Props{Compute: pref, Ops: 4e8, OutputBytes: 1 << 14}, nil)
			src.Then(t)
			t.Then(sink)
		}
		return j
	}
	jobs := []*dataflow.Job{
		mkBatch("batch-cpu-0", dataflow.OnCPU),
		mkBatch("batch-cpu-1", dataflow.OnCPU),
		mkBatch("batch-gpu-0", dataflow.OnGPU),
		mkBatch("batch-any-0", dataflow.AnyDevice),
		mkBatch("batch-any-1", dataflow.AnyDevice),
		mkBatch("batch-fpga-0", dataflow.OnFPGA),
	}
	rep, err := rt.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	speedup := float64(rep.SumIsolated) / float64(rep.Makespan)
	tbl := &table{header: []string{"Serving mode", "Completion of all 6 jobs", "Speedup"}}
	tbl.add("sequential (one at a time)", fmtDur(float64(rep.SumIsolated)), "1.0×")
	tbl.add("concurrent (shared RTS)", fmtDur(float64(rep.Makespan)), fmt.Sprintf("%.1f×", speedup))
	var worst float64
	for _, jr := range rep.Jobs {
		if jr.Stretch > worst {
			worst = jr.Stretch
		}
	}
	tbl.add("worst per-job stretch", fmt.Sprintf("%.2f×", worst), "")
	return &Artifact{
		ID:    "ablation-multijob",
		Title: "Ablation A6 (§2.1): serving a concurrent job mix on one runtime",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"sequential_ns": float64(rep.SumIsolated), "concurrent_ns": float64(rep.Makespan),
			"speedup": speedup, "worst_stretch": worst,
		},
	}, nil
}

// AblationRecovery measures checkpointed recovery: a pipeline whose last
// stage fails once, re-run with and without checkpoints.
func AblationRecovery() (*Artifact, error) {
	mkStore := func() (fault.Store, error) {
		fabric := cluster.NewFabric(cluster.Config{})
		for i := 0; i < 8; i++ {
			if err := fabric.AddNode(fmt.Sprintf("ck%d", i), 1<<26); err != nil {
				return nil, err
			}
		}
		return fault.NewReplicatedStore(fabric, 3)
	}
	// The job: an expensive producer chain (compute-heavy, small outputs —
	// the regime where recomputation dwarfs restore I/O) feeding a cheap,
	// flaky sink.
	mkJob := func(failures *int) *dataflow.Job {
		j := dataflow.NewJob("pipeline")
		prev := j.Task("stage0", dataflow.Props{Ops: 5e9, OutputBytes: 64 << 10}, nil)
		for i := 1; i < 4; i++ {
			t := j.Task(fmt.Sprintf("stage%d", i), dataflow.Props{Ops: 5e9, OutputBytes: 64 << 10}, nil)
			prev.Then(t)
			prev = t
		}
		sink := j.Task("sink", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
			if *failures > 0 {
				*failures--
				return errors.New("transient sink failure")
			}
			return nil
		})
		prev.Then(sink)
		return j
	}

	// Baselines on a clean job: B = plain makespan, B+O = with snapshots.
	zero := 0
	rtBase, err := core.New(core.ExecConfig{})
	if err != nil {
		return nil, err
	}
	baseRep, err := rtBase.Run(mkJob(&zero))
	if err != nil {
		return nil, err
	}
	storeOverhead, err := mkStore()
	if err != nil {
		return nil, err
	}
	rtOv, err := core.New(core.ExecConfig{})
	if err != nil {
		return nil, err
	}
	zero = 0
	ovRep, err := rtOv.Run(mkJob(&zero), core.RecoveryPolicy{Checkpointer: core.NewCheckpointer(storeOverhead)})
	if err != nil {
		return nil, err
	}

	// Without checkpoints: failure at the sink costs two full runs.
	plainTotal := 2 * baseRep.Makespan

	// With checkpoints: failed attempt (with snapshot overhead) + a retry
	// that restores the four stages instead of recomputing them. The
	// recovered report times the retry alone (it starts over on the cores the
	// failed attempt left idle), so the failed attempt is priced by the clean
	// checkpointed run above.
	failures := 1
	store, err := mkStore()
	if err != nil {
		return nil, err
	}
	rtCk, err := core.New(core.ExecConfig{})
	if err != nil {
		return nil, err
	}
	repCk, err := rtCk.Run(mkJob(&failures), core.RecoveryPolicy{Checkpointer: core.NewCheckpointer(store)})
	if err != nil {
		return nil, err
	}
	attempts := repCk.Attempts
	ckTotal := ovRep.Makespan + repCk.Makespan
	saving := float64(plainTotal) / float64(ckTotal)
	tbl := &table{header: []string{"Recovery mode", "Cost to finish after 1 failure", "Attempts", "Speedup"}}
	tbl.add("restart from scratch", fmtDur(float64(plainTotal)), "2", "1.0×")
	tbl.add("checkpointed restart", fmtDur(float64(ckTotal)), fmt.Sprintf("%d", attempts), fmt.Sprintf("%.1f×", saving))
	return &Artifact{
		ID:    "ablation-recovery",
		Title: "Ablation A7 (challenge 8(3)): checkpointed restart vs full re-execution",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"scratch_ns": float64(plainTotal), "checkpoint_ns": float64(ckTotal),
			"speedup": saving, "attempts": float64(attempts),
		},
	}, nil
}
