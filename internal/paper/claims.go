package paper

import (
	"fmt"
	"time"

	"repro/internal/dcsim"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/memsim"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/swizzle"
	"repro/internal/topology"
)

// ClaimNUMA regenerates the intro's "[NUMA] can slow down algorithms by up
// to 3×" [39]: a random-access data shuffle against socket-local DRAM vs
// the remote socket's DRAM, from the same CPU.
func ClaimNUMA() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	const cpu = "node0/cpu0"
	const accesses = 4096
	measure := func(dev string) (time.Duration, error) {
		clk := topo.NewTaskView()
		var now time.Duration
		for i := 0; i < accesses; i++ {
			done, err := clk.AccessTime(cpu, dev, now, 64, memsim.Read, memsim.Random)
			if err != nil {
				return 0, err
			}
			now = done
		}
		return now, nil
	}
	local, err := measure("node0/dram0")
	if err != nil {
		return nil, err
	}
	remote, err := measure("node0/dram1")
	if err != nil {
		return nil, err
	}
	ratio := float64(remote) / float64(local)
	tbl := &table{header: []string{"Placement", "4096 random 64B reads", "Slowdown"}}
	tbl.add("local socket DRAM", fmtDur(float64(local)), "1.0×")
	tbl.add("remote socket DRAM (NUMA)", fmtDur(float64(remote)), fmt.Sprintf("%.1f×", ratio))
	return &Artifact{
		ID:    "claim-numa",
		Title: "Claim [39]: NUMA placement slows data shuffling (paper: up to 3×)",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"local_ns": float64(local), "remote_ns": float64(remote), "slowdown": ratio,
		},
	}, nil
}

// ClaimPlacement regenerates "a naïve data placement ... can reduce a
// database system's performance by up to 3×" [59]: a hash-aggregation
// working set placed by the cost-model optimizer vs the worst legal device
// for an untuned (latency-unconstrained) request.
func ClaimPlacement() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	clk := topo.NewTaskView() // both policies' runs queue on one clock
	run := func(placer region.Placer) (time.Duration, string, error) {
		mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placer})
		if err != nil {
			return 0, "", err
		}
		// An untuned developer request: byte-addressable sync memory, no
		// latency class given (the declarative hint the paper adds is
		// exactly what's missing here).
		h, err := mgr.Alloc(region.Spec{
			Name: "group-ht", Class: props.Custom, Size: 1 << 20,
			Req:   props.Requirements{Sync: props.Require, ByteAddr: props.Require},
			Owner: "q1", Compute: "node0/cpu0", Clock: clk,
		})
		if err != nil {
			return 0, "", err
		}
		defer h.Release() //nolint:errcheck // teardown
		dev, _ := h.DeviceID()
		// Hash-aggregation probe pattern: 8192 random 64 B slot touches
		// (read-modify-write).
		var now time.Duration
		buf := make([]byte, 64)
		for i := 0; i < 8192; i++ {
			off := int64(i*2654435761%(1<<20-64)) &^ 63
			done, err := h.ReadAtRandom(now, off, buf)
			if err != nil {
				return 0, "", err
			}
			done, err = h.WriteAt(done, off, buf)
			if err != nil {
				return 0, "", err
			}
			now = done
		}
		return now, dev, nil
	}
	optTime, optDev, err := run(placement.NewBestFit(topo))
	if err != nil {
		return nil, err
	}
	naiveTime, naiveDev, err := run(placement.NewWorst(topo))
	if err != nil {
		return nil, err
	}
	ratio := float64(naiveTime) / float64(optTime)
	tbl := &table{header: []string{"Placement policy", "Device", "Aggregation time", "Slowdown"}}
	tbl.add("runtime optimizer (best-fit)", optDev, fmtDur(float64(optTime)), "1.0×")
	tbl.add("naive (worst legal fit)", naiveDev, fmtDur(float64(naiveTime)), fmt.Sprintf("%.1f×", ratio))
	return &Artifact{
		ID:    "claim-placement",
		Title: "Claim [59]: naive data placement reduces DBMS performance (paper: up to 3×)",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"optimized_ns": float64(optTime), "naive_ns": float64(naiveTime), "slowdown": ratio,
		},
	}, nil
}

// ClaimUtilization regenerates "average memory utilization ... remains low,
// typically in the range of 50-65%" [38,56]: the peak-vs-average gap of a
// statically provisioned park under a bursty Poisson stream, measured by
// the discrete-event simulator. Peak demand forces the provisioning; the
// time-average is what the cloud vendors report.
func ClaimUtilization() (*Artifact, error) {
	cfg := dcsim.Config{Servers: 8, PerServer: 256 << 30}
	jobs := dcsim.PoissonJobs(42, 4000, 9*time.Millisecond, 95*time.Millisecond, cfg.PerServer, 0.1, 0.9)
	st, err := dcsim.Static(cfg, jobs)
	if err != nil {
		return nil, err
	}
	po, err := dcsim.Pooled(cfg, jobs)
	if err != nil {
		return nil, err
	}
	inBand := st.AvgUtil >= 0.45 && st.AvgUtil <= 0.70
	tbl := &table{header: []string{"Provisioning", "Avg util", "Peak util", "Avg wait", "Note"}}
	tbl.add("static per-server (status quo)", fmt.Sprintf("%.1f%%", 100*st.AvgUtil),
		fmt.Sprintf("%.1f%%", 100*st.PeakUtil), fmtDur(float64(st.AvgWait)),
		fmt.Sprintf("paper's 50-65%% band: %s", yesNo(inBand)))
	tbl.add("pooled (proposed)", fmt.Sprintf("%.1f%%", 100*po.AvgUtil),
		fmt.Sprintf("%.1f%%", 100*po.PeakUtil), fmtDur(float64(po.AvgWait)), "")
	return &Artifact{
		ID:    "claim-util",
		Title: "Claim [38,56]: static provisioning strands memory at 50-65% utilization; pooling recovers it",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"static_util": st.AvgUtil, "pooled_util": po.AvgUtil,
			"static_wait_ns": float64(st.AvgWait), "pooled_wait_ns": float64(po.AvgWait),
		},
	}, nil
}

// ClaimFaultTolerance regenerates the challenge-8(3) discussion (Carbink
// [62]): replication vs erasure coding for far-memory objects — memory
// overhead, write cost, degraded-read cost, and crash recovery.
func ClaimFaultTolerance() (*Artifact, error) {
	const nodes = 8
	const objSize = 4096
	const objects = 64
	mkFabric := func() (*cluster.Fabric, error) {
		f := cluster.NewFabric(cluster.Config{})
		for i := 0; i < nodes; i++ {
			if err := f.AddNode(fmt.Sprintf("mem%d", i), 1<<26); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	type result struct {
		name                   string
		overhead               float64
		writeNS, readNS        time.Duration
		degradedNS, recoveryNS time.Duration
	}
	exercise := func(name string, store fault.Store, f *cluster.Fabric) (*result, error) {
		var ids []fault.ObjectID
		var writeTotal time.Duration
		payload := make([]byte, objSize)
		for i := range payload {
			payload[i] = byte(i)
		}
		for i := 0; i < objects; i++ {
			id, d, err := store.Put(payload)
			if err != nil {
				return nil, err
			}
			writeTotal += d
			ids = append(ids, id)
		}
		if ec, ok := store.(*fault.ErasureStore); ok {
			d, err := ec.Flush()
			if err != nil {
				return nil, err
			}
			writeTotal += d
		}
		logical, physical := store.StoredBytes()
		_, healthyRead, err := store.Get(ids[objects/2])
		if err != nil {
			return nil, err
		}
		// Crash one node, measure degraded read and recovery.
		if err := f.Crash("mem0"); err != nil {
			return nil, err
		}
		_, degraded, err := store.Get(ids[objects/2])
		if err != nil {
			return nil, err
		}
		_, recovery, err := store.Recover()
		if err != nil {
			return nil, err
		}
		return &result{
			name: name, overhead: float64(physical) / float64(logical),
			writeNS: writeTotal / objects, readNS: healthyRead,
			degradedNS: degraded, recoveryNS: recovery,
		}, nil
	}
	f1, err := mkFabric()
	if err != nil {
		return nil, err
	}
	rep, err := fault.NewReplicatedStore(f1, 3)
	if err != nil {
		return nil, err
	}
	r1, err := exercise("3-replication", rep, f1)
	if err != nil {
		return nil, err
	}
	f2, err := mkFabric()
	if err != nil {
		return nil, err
	}
	ec, err := fault.NewErasureStore(f2, fault.ErasureConfig{Data: 4, Parity: 2, SpanSize: 16384})
	if err != nil {
		return nil, err
	}
	r2, err := exercise("RS(6,4) erasure", ec, f2)
	if err != nil {
		return nil, err
	}
	tbl := &table{header: []string{"Scheme", "Mem overhead", "Write/obj", "Read", "Degraded read", "Recovery"}}
	for _, r := range []*result{r1, r2} {
		tbl.add(r.name, fmt.Sprintf("%.2f×", r.overhead), fmtDur(float64(r.writeNS)),
			fmtDur(float64(r.readNS)), fmtDur(float64(r.degradedNS)), fmtDur(float64(r.recoveryNS)))
	}
	return &Artifact{
		ID:    "claim-fault",
		Title: "Claim [62] (Carbink): erasure coding cuts far-memory overhead vs replication at slower degraded reads",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"replication_overhead": r1.overhead, "erasure_overhead": r2.overhead,
			"replication_degraded_ns": float64(r1.degradedNS), "erasure_degraded_ns": float64(r2.degradedNS),
		},
	}, nil
}

// ClaimSwizzle regenerates the pointer-swizzling discussion ([37,48,62]):
// a skewed object workload (90% of accesses to 10% of objects) over a
// small local tier, with and without hotness-driven swizzling.
func ClaimSwizzle() (*Artifact, error) {
	const objects = 1024
	const objSize = 256
	const accesses = 20000
	run := func(swizzling bool) (time.Duration, swizzle.Stats, error) {
		promoteAt := 3
		if !swizzling {
			promoteAt = 1 << 20 // never promotes
		}
		h, err := swizzle.NewHeap(swizzle.Config{
			LocalCapacity: objects / 8 * objSize, // 12.5% fits locally
			PromoteAt:     promoteAt,
		})
		if err != nil {
			return 0, swizzle.Stats{}, err
		}
		var ids []swizzle.ObjID
		payload := make([]byte, objSize)
		for i := 0; i < objects; i++ {
			id, err := h.Alloc(payload)
			if err != nil {
				return 0, swizzle.Stats{}, err
			}
			ids = append(ids, id)
		}
		hot := objects / 10
		var total time.Duration
		state := uint64(7)
		for i := 0; i < accesses; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			var idx int
			if (state>>33)%10 < 9 { // 90% of traffic
				idx = objects - hot + int((state>>10)%uint64(hot)) // hottest tail
			} else {
				idx = int((state >> 10) % uint64(objects))
			}
			_, d, err := h.Access(ids[idx])
			if err != nil {
				return 0, swizzle.Stats{}, err
			}
			total += d
			if swizzling && i%500 == 499 {
				_, _, cost := h.Sweep()
				total += cost
			}
		}
		return total, h.Stats(), nil
	}
	off, offStats, err := run(false)
	if err != nil {
		return nil, err
	}
	on, onStats, err := run(true)
	if err != nil {
		return nil, err
	}
	speedup := float64(off) / float64(on)
	tbl := &table{header: []string{"Mode", "Total access time", "Local hit rate", "Promotions"}}
	hitRate := func(s swizzle.Stats) string {
		return fmt.Sprintf("%.1f%%", 100*float64(s.LocalHits)/float64(s.LocalHits+s.RemoteHits))
	}
	tbl.add("no swizzling (pointers stay remote)", fmtDur(float64(off)), hitRate(offStats), fmt.Sprintf("%d", offStats.Promotions))
	tbl.add("hotness-tagged swizzling", fmtDur(float64(on)), hitRate(onStats), fmt.Sprintf("%d", onStats.Promotions))
	tbl.add("speedup", fmt.Sprintf("%.1f×", speedup), "", "")
	return &Artifact{
		ID:    "claim-swizzle",
		Title: "Claim [37,48,62]: hotness-tagged pointer swizzling accelerates skewed far-memory workloads",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"no_swizzle_ns": float64(off), "swizzle_ns": float64(on), "speedup": speedup,
			"swizzle_local_hits": float64(onStats.LocalHits),
		},
	}, nil
}
