package paper

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/topology"
)

// AblationAsync quantifies §2.2's access-interface argument: a scan over
// NIC-attached far memory with (a) one outstanding request at a time (the
// synchronous discipline) vs (b) an 8-deep asynchronous pipeline.
func AblationAsync() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
	if err != nil {
		return nil, err
	}
	const chunk = 4096
	const chunks = 256
	h, err := mgr.Alloc(region.Spec{
		Name: "far-scan", Class: props.Custom, Size: chunk * chunks,
		Req:   props.Requirements{Latency: props.LatencyHigh, Sync: props.Forbid, ByteAddr: props.Require},
		Owner: "ablation", Compute: "node0/cpu0",
	})
	if err != nil {
		return nil, err
	}
	defer h.Release() //nolint:errcheck // teardown
	dev, _ := h.DeviceID()
	buf := make([]byte, chunk)

	// Synchronous discipline: issue, await, repeat.
	var now time.Duration
	for i := 0; i < chunks; i++ {
		f := h.ReadAsync(now, int64(i*chunk), buf)
		done, err := f.Await(now)
		if err != nil {
			return nil, err
		}
		now = done
	}
	syncTotal := now

	// Reset the device queue for a fair second run.
	if m, ok := topo.Memory(dev); ok {
		m.ResetQueue()
	}

	// Asynchronous pipeline: keep 8 requests in flight.
	const depth = 8
	now = 0
	var inflight []*region.Future
	for i := 0; i < chunks; i++ {
		inflight = append(inflight, h.ReadAsync(now, int64(i*chunk), buf))
		if len(inflight) >= depth {
			done, err := inflight[0].Await(now)
			if err != nil {
				return nil, err
			}
			now = done
			inflight = inflight[1:]
		}
	}
	for _, f := range inflight {
		done, err := f.Await(now)
		if err != nil {
			return nil, err
		}
		now = done
	}
	asyncTotal := now

	speedup := float64(syncTotal) / float64(asyncTotal)
	tbl := &table{header: []string{"Interface", "1 MiB scan of " + dev, "Speedup"}}
	tbl.add("synchronous (1 outstanding)", fmtDur(float64(syncTotal)), "1.0×")
	tbl.add("asynchronous (8-deep pipeline)", fmtDur(float64(asyncTotal)), fmt.Sprintf("%.1f×", speedup))
	return &Artifact{
		ID:    "ablation-async",
		Title: "Ablation A1 (§2.2(3)): asynchronous access interfaces for far memory",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"sync_ns": float64(syncTotal), "async_ns": float64(asyncTotal), "speedup": speedup,
		},
	}, nil
}

// AblationScheduler contrasts the HEFT cost model against FIFO and
// round-robin on a heterogeneous job mix (RTS duty 4).
func AblationScheduler() (*Artifact, error) {
	mkMix := func() *dataflow.Job {
		j := dataflow.NewJob("mix")
		src := j.Task("src", dataflow.Props{Ops: 1e5, OutputBytes: 1 << 16}, nil)
		sink := j.Task("sink", dataflow.Props{Ops: 1e5}, nil)
		for i := 0; i < 20; i++ {
			t := j.Task(fmt.Sprintf("work%02d", i), dataflow.Props{Ops: 4e8, OutputBytes: 1 << 16}, nil)
			src.Then(t)
			t.Then(sink)
		}
		gpu := j.Task("gpu-stage", dataflow.Props{Compute: dataflow.OnGPU, Ops: 1e9, OutputBytes: 1 << 20}, nil)
		src.Then(gpu)
		gpu.Then(sink)
		return j
	}
	tbl := &table{header: []string{"Scheduler", "Makespan", "vs HEFT"}}
	metrics := map[string]float64{}
	var heftSpan time.Duration
	for _, s := range []sched.Scheduler{sched.HEFT{}, sched.FIFO{}, sched.RoundRobin{}} {
		topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
		if err != nil {
			return nil, err
		}
		rt, err := core.New(core.ExecConfig{Topology: topo, Scheduler: s})
		if err != nil {
			return nil, err
		}
		rep, err := rt.Run(mkMix())
		if err != nil {
			return nil, err
		}
		if s.Name() == "HEFT" {
			heftSpan = rep.Makespan
		}
		ratio := "1.0×"
		if heftSpan > 0 && s.Name() != "HEFT" {
			ratio = fmt.Sprintf("%.1f×", float64(rep.Makespan)/float64(heftSpan))
		}
		tbl.add(s.Name(), fmtDur(float64(rep.Makespan)), ratio)
		metrics["makespan_ns/"+s.Name()] = float64(rep.Makespan)
	}
	return &Artifact{
		ID:    "ablation-sched",
		Title: "Ablation A2 (§2.3 RTS duty 4): resource-aware scheduling vs naive policies",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}

// AblationCoherence quantifies §2.2's ownership argument: updates to a
// counter under shared ownership (two CPUs ping-ponging one cache line
// through the directory) vs exclusive ownership handed over once.
func AblationCoherence() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
	if err != nil {
		return nil, err
	}
	const updates = 512
	buf := make([]byte, 8)

	// Shared ownership: two owners alternate writes to the same line.
	shared, err := mgr.Alloc(region.Spec{
		Name: "counter", Class: props.GlobalState, Size: 4096,
		Owner: "t1", Compute: "node0/cpu0",
	})
	if err != nil {
		return nil, err
	}
	sh2, err := shared.Share("t2", "node0/cpu1")
	if err != nil {
		return nil, err
	}
	var now time.Duration
	for i := 0; i < updates; i++ {
		h := shared
		if i%2 == 1 {
			h = sh2
		}
		done, err := h.WriteAt(now, 0, buf)
		if err != nil {
			return nil, err
		}
		now = done
	}
	sharedTotal := now
	invalidations := float64(mgr.Directory().Stats().Invalidations)
	sh2.Release()      //nolint:errcheck // teardown
	shared.Release()   //nolint:errcheck // teardown
	topo.ResetQueues() // the shared phase must not leave a virtual backlog

	// Exclusive ownership: t1 does half the updates, transfers once, t2
	// finishes — no protocol traffic (§2.2: "consistency guarantees and
	// memory ordering can be relaxed").
	excl, err := mgr.Alloc(region.Spec{
		Name: "counter", Class: props.Transfer, Size: 4096,
		Owner: "t1", Compute: "node0/cpu0",
	})
	if err != nil {
		return nil, err
	}
	now = 0
	for i := 0; i < updates/2; i++ {
		done, err := excl.WriteAt(now, 0, buf)
		if err != nil {
			return nil, err
		}
		now = done
	}
	h2, now, err := excl.Transfer(now, "t2", "node0/cpu1")
	if err != nil {
		return nil, err
	}
	for i := 0; i < updates/2; i++ {
		done, err := h2.WriteAt(now, 0, buf)
		if err != nil {
			return nil, err
		}
		now = done
	}
	exclTotal := now
	h2.Release() //nolint:errcheck // teardown

	ratio := float64(sharedTotal) / float64(exclTotal)
	tbl := &table{header: []string{"Ownership", "512 counter updates", "Invalidations", "Cost"}}
	tbl.add("shared (coherent ping-pong)", fmtDur(float64(sharedTotal)), fmt.Sprintf("%.0f", invalidations), fmt.Sprintf("%.1f×", ratio))
	tbl.add("exclusive + one transfer", fmtDur(float64(exclTotal)), "0", "1.0×")
	return &Artifact{
		ID:    "ablation-coherence",
		Title: "Ablation A3 (§2.2(2)): the coherence cost of shared vs exclusive ownership",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"shared_ns": float64(sharedTotal), "exclusive_ns": float64(exclTotal),
			"ratio": ratio, "invalidations": invalidations,
		},
	}, nil
}
