package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/memsim"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

const (
	replaySample  = 512 // pool jobs (or windows) a replay walks
	replayBatches = 5   // a replayed time is the median of this many batches
)

// sink keeps replayed results alive so the calls are not optimised away.
var sink any

// timeOp calls op(i) for i in [0, n) replayBatches times and returns the
// median batch's ns per call.
func timeOp(n int, op func(i int)) float64 {
	per := make([]float64, replayBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// sampleJobs is what the replays walk: the head of the job pool, or the
// first windows of the stream.
func sampleJobs(m *measured) ([]*dataflow.Job, error) {
	if m.s.kind != streamLoop {
		return m.in.jobs[:replaySample], nil
	}
	sp := m.in.streamSpec(0, replaySample, nil, nil)
	jobs := make([]*dataflow.Job, replaySample)
	for w := range jobs {
		events, _ := stream.Pull(sp.Source, sp.WindowSize)
		j, err := sp.Instantiate(w, events)
		if err != nil {
			return nil, err
		}
		jobs[w] = j
	}
	return jobs, nil
}

// replay times each layer's public functions in isolation, on private
// instances, over the same jobs the workload serves. Everything is called
// from outside the packages; nothing in them is instrumented.
func replay(m *measured) (map[string]float64, error) {
	jobs, err := sampleJobs(m)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	tasks, checkpoint := 0, []int64{}
	for _, j := range jobs {
		tasks += j.Len()
		for _, t := range j.Tasks() {
			if b := t.Props().OutputBytes; b > 0 {
				checkpoint = append(checkpoint, b)
			}
		}
	}
	sort.Slice(checkpoint, func(a, b int) bool { return checkpoint[a] < checkpoint[b] })
	ckBytes := checkpoint[len(checkpoint)/2] // a task's snapshot is its output

	// dataflow, sched: per job of the sample.
	job := func(i int) *dataflow.Job { return jobs[i%len(jobs)] }
	out["dataflow.validate_ns_per_job"] = timeOp(len(jobs), func(i int) { sink = job(i).Validate() })
	out["dataflow.topo_ns_per_job"] = timeOp(len(jobs), func(i int) { sink, _ = job(i).TopoOrder() })
	out["sched.estimate_ns_per_job"] = timeOp(len(jobs), func(i int) { _, sink, _ = sched.EstimateJob(job(i), topo, sched.HEFT{}) })
	out["sched.heft_ns_per_task"] = timeOp(len(jobs), func(i int) { sink, _ = sched.HEFT{}.Schedule(job(i), topo) }) * float64(len(jobs)) / float64(tasks)

	// placement, region: the request a task's output makes.
	const cpu, dram = "node0/cpu0", "node0/dram0"
	tel := telemetry.NewRegistry()
	placer := placement.NewBestFit(topo)
	view := topo.NewTaskView()
	req := props.Requirements{Persistent: props.Any}
	merged, err := props.Merge(props.Transfer.Defaults(), req)
	if err != nil {
		return nil, err
	}
	merged.Capacity = ckBytes
	out["placement.place_ns"] = timeOp(4096, func(i int) { sink, _ = placer.PlaceEpoch(merged, cpu, 0, view) })
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placer, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	spec := region.Spec{Name: "out", Class: props.Transfer, Size: ckBytes, Req: req, Owner: "replay", Compute: cpu, Clock: view}
	out["region.alloc_ns"] = timeOp(4096, func(i int) {
		h, err := mgr.Alloc(spec)
		if err == nil {
			sink = h.Release()
		}
	})
	h, err := mgr.Alloc(region.Spec{Name: "rw", Class: props.Transfer, Size: 1 << 16, Req: req, Owner: "replay", Compute: cpu, Clock: view})
	if err != nil {
		return nil, fmt.Errorf("replay region: %w", err)
	}
	// A zero-copy hand-over between two tasks on one compute device, and a
	// fan-out share with its release: what a task's output goes through.
	moving := h
	var moveErr error
	out["region.transfer_ns"] = timeOp(4096, func(i int) {
		next, _, err := moving.Transfer(0, region.Owner(fmt.Sprint("t", i)), cpu)
		if err != nil {
			moveErr = err
			return
		}
		moving = next
	})
	if moveErr != nil {
		return nil, fmt.Errorf("replay transfer: %w", moveErr)
	}
	h = moving
	shared, err := mgr.Alloc(region.Spec{Name: "fan", Class: props.GlobalScratch, Size: ckBytes, Owner: "replay", Compute: cpu, Clock: view})
	if err != nil {
		return nil, fmt.Errorf("replay shared region: %w", err)
	}
	out["region.share_ns"] = timeOp(4096, func(i int) {
		sh, err := shared.ShareRanked("consumer", cpu, 1)
		if err == nil {
			sink = sh.Release()
		}
	})
	buf := make([]byte, 64)
	out["region.read_ns"] = timeOp(8192, func(i int) { sink, _ = h.ReadAt(0, int64(i%1024)*64, buf) })
	out["region.write_ns"] = timeOp(8192, func(i int) { sink, _ = h.WriteAt(0, int64(i%1024)*64, buf) })

	// coherence, topology, telemetry: one call each.
	dir := coherence.NewDirectory()
	line := func(i int) coherence.LineID { return coherence.LineID{Region: 1, Line: uint64(i % 1024)} }
	out["coherence.read_ns"] = timeOp(8192, func(i int) { sink = dir.Read(cpu, line(i)) })
	out["coherence.write_ns"] = timeOp(8192, func(i int) { sink = dir.Write(cpu, line(i)) })
	out["topology.caps_ns"] = timeOp(8192, func(i int) { sink, _ = topo.EffectiveCaps(cpu, dram) })
	out["topology.path_ns"] = timeOp(8192, func(i int) { sink, _ = topo.Path(cpu, dram) })
	out["topology.access_ns"] = timeOp(8192, func(i int) { sink, _ = view.AccessTime(cpu, dram, 0, 64, memsim.Read, memsim.Sequential) })
	out["telemetry.add_ns"] = timeOp(8192, func(i int) { tel.Add(telemetry.LayerRegion, "bytes_read", 64) })
	out["telemetry.observe_ns"] = timeOp(8192, func(i int) { tel.Observe(telemetry.LayerRuntime, "server_queue_wait", time.Microsecond) })
	out["telemetry.record_ns"] = timeOp(8192, func(i int) {
		tel.Record(telemetry.Span{Layer: telemetry.LayerRuntime, Job: "replay", Task: "t", Name: "exec", End: time.Microsecond})
	})

	// core: the executor and everything under it, without a server.
	rt, err := core.New(core.ExecConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	solo := jobs[:replaySample/8]
	soloTasks := 0
	for _, j := range solo {
		soloTasks += j.Len()
	}
	var runErr error
	out["core.solo_ns_per_task"] = timeOp(len(solo), func(i int) {
		if _, err := rt.Run(solo[i]); err != nil {
			runErr = err
		}
	}) * float64(len(solo)) / float64(soloTasks)
	if runErr != nil {
		return nil, fmt.Errorf("solo replay: %w", runErr)
	}

	// cluster, fault: verbs on a private fabric, a median-sized checkpoint.
	fab := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 3; i++ {
		if err := fab.AddNode(fmt.Sprintf("pmem%d", i), 1<<28); err != nil {
			return nil, err
		}
	}
	slab, _, err := fab.AllocSlab("pmem0", 1<<20)
	if err != nil {
		return nil, err
	}
	ledger := make([]byte, 32)
	out["cluster.write_ns"] = timeOp(8192, func(i int) { sink, _ = fab.Write(slab, int64(i%1024)*32, ledger) })
	out["cluster.read_ns"] = timeOp(8192, func(i int) { sink, _ = fab.Read(slab, int64(i%1024)*32, ledger) })
	out["cluster.allocslab_ns"] = timeOp(4096, func(i int) {
		id, _, err := fab.AllocSlab("pmem1", ckBytes)
		if err == nil {
			sink, _ = fab.FreeSlab(id)
		}
	})
	store, err := fault.NewReplicatedStore(fab, 2)
	if err != nil {
		return nil, err
	}
	snapshot := make([]byte, ckBytes)
	ids := make([]fault.ObjectID, 0, 2048)
	out["fault.put_ns"] = timeOp(2048, func(i int) {
		if len(ids) == cap(ids) { // next batch: drop the last one's objects
			for _, id := range ids {
				store.Delete(id) //nolint:errcheck // replay scratch
			}
			ids = ids[:0]
		}
		id, _, err := store.Put(snapshot)
		if err == nil {
			ids = append(ids, id)
		}
	})
	out["fault.get_ns"] = timeOp(2048, func(i int) { sink, _, _ = store.Get(ids[i%len(ids)]) })

	// shard: hash and route on a private 2-shard ring.
	cl, err := shard.NewCluster(shard.Config{Shards: 2})
	if err != nil {
		return nil, err
	}
	out["shard.route_ns"] = timeOp(len(jobs), func(i int) { sink = cl.Route(shard.Signature(job(i))) })
	if err := cl.Close(nil); err != nil {
		return nil, err
	}

	// stream: what the stream driver does per window before submitting it.
	if m.s.kind == streamLoop {
		sp := m.in.streamSpec(0, 1<<30, nil, nil)
		var windows [][]stream.Event
		out["stream.pull_ns_per_event"] = timeOp(replaySample, func(i int) {
			events, _ := stream.Pull(sp.Source, sp.WindowSize)
			if len(windows) < replaySample {
				windows = append(windows, events)
			}
		}) / float64(sp.WindowSize)
		out["stream.instantiate_ns_per_window"] = timeOp(replaySample, func(i int) { sink, _ = sp.Instantiate(i, windows[i]) })
	}
	return out, nil
}

// budgetRow is one line of the per-workload budget: how much host time per
// job a layer accounts for, as calls per job (exact counts from the run)
// times replayed time per call, or measured directly where the driver
// records the interval itself.
type budgetRow struct {
	name    string
	perJob  float64 // calls per completed job
	nsPerOp float64
	// part rows are already inside the row above them, or overlap other
	// rows, and are shown for orientation; they do not count toward the sum.
	part bool
}

// budget lays the layer numbers under the run's CPU time per job. Rows that
// are not parts are disjoint, so what they leave of the CPU time is the
// unattributed residual: wavefront dispatch, goroutine hand-offs, the
// compute inside task bodies, report building, and whatever else the
// replays do not reach.
func budget(m *measured, v map[string]float64) []budgetRow {
	var rows []budgetRow
	row := func(name string, perJob, ns float64) {
		rows = append(rows, budgetRow{name: name, perJob: perJob, nsPerOp: ns})
	}
	part := func(name string, perJob, ns float64) {
		rows = append(rows, budgetRow{name: "  " + name, perJob: perJob, nsPerOp: ns, part: true})
	}
	tasks := v["core.tasks_per_job"]
	accesses := v["memsim.reads_per_job"] + v["memsim.writes_per_job"]
	if m.s.kind == streamLoop {
		// One SubmitStream call serves every window; the per-window
		// admission work is the stream driver's.
		row("stream.pull", float64(streamCfg.WindowSize), v["stream.pull_ns_per_event"])
		row("stream.instantiate", 1, v["stream.instantiate_ns_per_window"])
		row("dataflow.validate", 1, v["dataflow.validate_ns_per_job"])
	} else {
		row("driver.submit (measured)", 1, v["driver.submit_ns"])
		part("dataflow.validate", 1, v["dataflow.validate_ns_per_job"])
		if m.s.slo {
			part("sched.estimate", 1, v["sched.estimate_ns_per_job"])
		}
		if m.s.sharded {
			part("shard.route", 1, v["shard.route_ns"])
			part("cluster.write (ledger)", 1, v["cluster.write_ns"])
		}
	}
	if !m.s.slo { // SLO admission's plan is reused by the batch
		row("sched.heft", tasks, v["sched.heft_ns_per_task"])
	}
	row("dataflow.topo (ranks)", 1, v["dataflow.topo_ns_per_job"])
	row("region.alloc+release", v["region.allocs_per_job"], v["region.alloc_ns"])
	part("placement.place", v["placement.places_per_job"], v["placement.place_ns"])
	row("region.transfer", v["region.transfers_per_job"], v["region.transfer_ns"])
	row("region.share+release", v["region.shares_per_job"], v["region.share_ns"])
	row("region.read", v["memsim.reads_per_job"], v["region.read_ns"])
	row("region.write", v["memsim.writes_per_job"], v["region.write_ns"])
	part("topology.caps+path+access", accesses, v["topology.caps_ns"]+v["topology.path_ns"]+v["topology.access_ns"])
	part("telemetry.add", accesses, v["telemetry.add_ns"])
	part("coherence.read (per fetch)", v["coherence.fetches_per_job"], v["coherence.read_ns"])
	row("telemetry.record", v["telemetry.spans_per_job"], v["telemetry.record_ns"])
	if m.s.sharded {
		row("fault.put (checkpoint)", v["fault.checkpoints_per_job"], v["fault.put_ns"])
		row("fault.get (restore)", v["fault.restores_per_kjob"]/1000, v["fault.get_ns"])
	}
	row("Go collector (measured)", 1, v["driver.gc_cpu_share"]*v["driver.cpu_us_per_job"]*1e3)
	part("task bodies, wall incl. fence waits (measured)", 1, v["driver.body_ns_per_job"])
	part("ctx allocations in bodies, wall (measured)", 1, v["driver.ctx_alloc_ns_per_job"])
	return rows
}

// residualShare is the share of the CPU time per job no budget row claims.
func residualShare(rows []budgetRow, cpuNsPerJob float64) float64 {
	sum := 0.0
	for _, r := range rows {
		if !r.part {
			sum += r.perJob * r.nsPerOp
		}
	}
	return 1 - sum/cpuNsPerJob
}

func printBudget(w io.Writer, name string, rows []budgetRow, cpuNsPerJob float64) {
	fmt.Fprintf(w, "budget %s: %.0f CPU-ns per job\n", name, cpuNsPerJob)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tcalls/job\tns/call\tns/job\tshare\t")
	for _, r := range rows {
		ns := r.perJob * r.nsPerOp
		fmt.Fprintf(tw, "%s\t%.2f\t%.0f\t%.0f\t%.1f%%\t\n", r.name, r.perJob, r.nsPerOp, ns, 100*ns/cpuNsPerJob)
	}
	res := residualShare(rows, cpuNsPerJob)
	fmt.Fprintf(tw, "driver.residual_share\t\t\t%.0f\t%.1f%%\t\n", res*cpuNsPerJob, 100*res)
	tw.Flush()
}
