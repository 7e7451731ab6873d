package paper

import (
	"fmt"
	"time"

	"repro/internal/dcsim"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Figure1 regenerates the compute-centric vs memory-centric contrast with
// the discrete-event datacenter simulator (internal/dcsim): the identical
// Poisson job stream served by per-server memory vs one pool of the same
// total capacity, under a 50 ms patience bound.
func Figure1() (*Artifact, error) {
	cfg := dcsim.Config{Servers: 8, PerServer: 256 << 30, MaxWait: 50 * time.Millisecond}
	jobs := dcsim.PoissonJobs(42, 2000, 10*time.Millisecond, 90*time.Millisecond, cfg.PerServer, 0.1, 0.9)
	st, err := dcsim.Static(cfg, jobs)
	if err != nil {
		return nil, err
	}
	po, err := dcsim.Pooled(cfg, jobs)
	if err != nil {
		return nil, err
	}
	tbl := &table{header: []string{"Architecture", "Admitted", "Avg util", "Peak util", "Avg wait"}}
	row := func(label string, r dcsim.Result) {
		tbl.add(label, fmt.Sprintf("%d/%d", r.Admitted, len(jobs)),
			fmt.Sprintf("%.1f%%", 100*r.AvgUtil), fmt.Sprintf("%.1f%%", 100*r.PeakUtil),
			fmtDur(float64(r.AvgWait)))
	}
	row("Fig. 1a compute-centric (static)", st)
	row("Fig. 1b memory-centric (pooled)", po)
	return &Artifact{
		ID:    "figure1",
		Title: "Figure 1: moving from compute-centric to memory-centric architecture (same Poisson stream)",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"static_admitted": float64(st.Admitted), "pooled_admitted": float64(po.Admitted),
			"static_util": st.AvgUtil, "pooled_util": po.AvgUtil,
			"static_wait_ns": float64(st.AvgWait), "pooled_wait_ns": float64(po.AvgWait),
		},
	}, nil
}

// Figure2 regenerates the hospital dataflow: the five tasks with their
// Fig. 2c property annotations run end-to-end; the table shows where each
// task and its regions landed and verifies the properties were honoured.
func Figure2() (*Artifact, error) {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		return nil, err
	}
	rep, err := rt.Run(workload.Hospital(workload.DefaultHospital()))
	if err != nil {
		return nil, err
	}
	tbl := &table{header: []string{"Task", "Declared", "Compute", "Key region", "Placed on"}}
	decls := map[string]string{
		"preprocess":          "GPU, confidential, low-lat",
		"face-recognition":    "GPU, confidential, low-lat",
		"track-hours":         "CPU, confidential, low-lat",
		"compute-utilization": "CPU",
		"alert-caregivers":    "CPU, confidential, persistent",
	}
	keyRegion := map[string]string{
		"preprocess":          "framebuf",
		"face-recognition":    "directory",
		"track-hours":         "hours",
		"compute-utilization": "out",
		"alert-caregivers":    "missing-patients",
	}
	violations := 0.0
	for _, id := range []string{"preprocess", "face-recognition", "track-hours", "compute-utilization", "alert-caregivers"} {
		tr, ok := rep.Tasks[id]
		if !ok {
			return nil, fmt.Errorf("paper: hospital task %s missing from report", id)
		}
		label := keyRegion[id]
		dev := tr.Regions[label]
		tbl.add(id, decls[id], tr.Compute, label, dev)
	}
	// Verify: persistent ledger on persistent media.
	if dev, ok := rt.Topology().Memory(rep.Tasks["alert-caregivers"].Regions["missing-patients"]); !ok || !dev.Persistent {
		violations++
	}
	// Verify: GPU tasks on GPU.
	for _, id := range []string{"preprocess", "face-recognition"} {
		if c, ok := rt.Topology().Compute(rep.Tasks[id].Compute); !ok || c.Kind != topology.GPU {
			violations++
		}
	}
	return &Artifact{
		ID:    "figure2",
		Title: "Figure 2: hospital dataflow with declarative task properties (executed)",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"makespan_ns":         float64(rep.Makespan),
			"property_violations": violations,
		},
	}, nil
}

// Figure3 regenerates the logical→physical mapping: the identical "fast
// local scratch" request issued from a CPU, a GPU, and a TPU maps to a
// different physical device each time, with the measured access latency
// from each side.
func Figure3() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	best := placement.NewBestFit(topo)
	req := props.PrivateScratch.Defaults()
	req.Capacity = 1 << 20
	tbl := &table{header: []string{"Compute device", "Request", "Mapped to", "Access latency"}}
	metrics := map[string]float64{}
	for _, comp := range []string{"node0/cpu0", "node0/gpu0", "node0/tpu0"} {
		dev, err := best.Place(req, comp)
		if err != nil {
			return nil, fmt.Errorf("paper: figure3 %s: %w", comp, err)
		}
		m, _ := topo.Memory(dev)
		m.ResetQueue()
		done, err := topo.AccessTime(comp, dev, 0, 64, memsim.Read, memsim.Sequential)
		if err != nil {
			return nil, err
		}
		m.ResetQueue()
		tbl.add(comp, "fast local scratch "+req.String(), dev, fmtDur(float64(done)))
		metrics["latency_ns/"+comp] = float64(done)
		metrics["mapped/"+comp+"→"+dev] = 1
	}
	return &Artifact{
		ID:    "figure3",
		Title: "Figure 3: the same logical Memory Region maps to different physical devices per compute device",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}

// Figure4 regenerates the ownership-transfer handover: the producer's "out"
// becomes the consumer's "in" by a zero-copy ownership move, versus the
// traditional physical copy, across output sizes.
func Figure4() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
	if err != nil {
		return nil, err
	}
	tbl := &table{header: []string{"Output size", "Ownership transfer", "Physical copy", "Speedup"}}
	metrics := map[string]float64{}
	for _, size := range []int64{64 << 10, 1 << 20, 16 << 20, 64 << 20} {
		// Ownership transfer: producer on cpu0, consumer on cpu1.
		h, err := mgr.Alloc(region.Spec{
			Name: "out", Class: props.Transfer, Size: size,
			Owner: "job/t1", Compute: "node0/cpu0",
		})
		if err != nil {
			return nil, err
		}
		h2, done, err := h.Transfer(0, "job/t2", "node0/cpu1")
		if err != nil {
			return nil, err
		}
		transferCost := done
		if err := h2.Release(); err != nil {
			return nil, err
		}

		// Physical copy: producer region + consumer region + byte copy.
		src, err := mgr.Alloc(region.Spec{Name: "src", Class: props.Transfer, Size: size, Owner: "job/t1", Compute: "node0/cpu0"})
		if err != nil {
			return nil, err
		}
		dst, err := mgr.Alloc(region.Spec{Name: "dst", Class: props.Transfer, Size: size, Owner: "job/t2", Compute: "node0/cpu1"})
		if err != nil {
			return nil, err
		}
		buf := make([]byte, size)
		now, err := src.ReadAt(0, 0, buf)
		if err != nil {
			return nil, err
		}
		copyDone, err := dst.WriteAt(now, 0, buf)
		if err != nil {
			return nil, err
		}
		src.Release() //nolint:errcheck // teardown
		dst.Release() //nolint:errcheck // teardown

		speedup := float64(copyDone) / float64(max64(int64(transferCost), 1))
		tbl.add(fmtBytes(size), fmtDur(float64(transferCost)), fmtDur(float64(copyDone)), fmt.Sprintf("%.0f×", speedup))
		metrics[fmt.Sprintf("transfer_ns/%d", size)] = float64(transferCost)
		metrics[fmt.Sprintf("copy_ns/%d", size)] = float64(copyDone)
	}
	return &Artifact{
		ID:    "figure4",
		Title: "Figure 4: out→in handover as ownership transfer vs physical copy",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}

func max64(a, b int64) time.Duration {
	if a > b {
		return time.Duration(a)
	}
	return time.Duration(b)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
