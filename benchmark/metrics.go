package main

import (
	"sort"
	"time"

	"repro/internal/telemetry"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; a test keeps the two identical.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the worsening, as a share, that is a regression
	// exact marks numbers that are a function of seed and job count alone:
	// at a fixed -seed and a fixed job count they repeat bit for bit, and a
	// change that moves one has changed the modelled system, not its speed.
	exact bool
}

// End-to-end metrics: what a user of the serving surface sees. Every
// workload reports every one. The bounds are sized to what this benchmark
// can resolve between runs that differ in seed on a shared 2-core host (see
// README.md, "Bounds"); at a fixed seed the exact ones must not move at all.
var endToEndDefs = []metricDef{
	{name: "jobs_per_s", unit: "jobs/s", better: "higher", bound: 0.25},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_job", unit: "count", better: "lower", bound: 0.10},
	{name: "alloc_kb_per_job", unit: "KiB", better: "lower", bound: 0.15},
	{name: "virt_makespan_mean_us", unit: "us", better: "lower", bound: 0.25, exact: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// Per-layer metrics, "<layer>.<name>": layer is a package under internal/,
// or "driver" for the benchmark itself. Counts are per completed run-phase
// job and come from public counters; *_ns are host time per call, from
// replaying that layer's public functions in isolation.
var perLayerDefs = []metricDef{
	{name: "driver.submit_ns", unit: "ns", better: "lower"},
	{name: "driver.wait_ns", unit: "ns", better: "lower"},
	{name: "driver.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "driver.lat_samples", unit: "count", better: "higher"},
	{name: "driver.gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "driver.cpu_us_per_job", unit: "us", better: "lower"},
	{name: "driver.gc_cpu_share", unit: "share", better: "lower"},
	{name: "driver.body_ns_per_job", unit: "ns", better: "lower"},
	{name: "driver.ctx_alloc_ns_per_job", unit: "ns", better: "lower"},
	{name: "driver.trace_overhead_share", unit: "share", better: "lower"},
	{name: "driver.residual_share", unit: "share", better: "lower"},
	{name: "driver.failed_share", unit: "share", better: "lower", exact: true},
	{name: "driver.retained_b_per_job", unit: "B", better: "lower"},
	{name: "dataflow.validate_ns_per_job", unit: "ns", better: "lower"},
	{name: "dataflow.topo_ns_per_job", unit: "ns", better: "lower"},
	{name: "sched.estimate_ns_per_job", unit: "ns", better: "lower"},
	{name: "sched.heft_ns_per_task", unit: "ns", better: "lower"},
	{name: "placement.place_ns", unit: "ns", better: "lower"},
	{name: "placement.places_per_job", unit: "count", better: "lower", exact: true},
	{name: "region.allocs_per_job", unit: "count", better: "lower", exact: true},
	{name: "region.frees_per_job", unit: "count", better: "lower", exact: true},
	{name: "region.bytes_read_per_job", unit: "B", better: "lower", exact: true},
	{name: "region.bytes_written_per_job", unit: "B", better: "lower", exact: true},
	{name: "region.shares_per_job", unit: "count", better: "lower", exact: true},
	{name: "region.transfers_per_job", unit: "count", better: "lower", exact: true},
	{name: "region.alloc_ns", unit: "ns", better: "lower"},
	{name: "region.transfer_ns", unit: "ns", better: "lower"},
	{name: "region.share_ns", unit: "ns", better: "lower"},
	{name: "region.read_ns", unit: "ns", better: "lower"},
	{name: "region.write_ns", unit: "ns", better: "lower"},
	{name: "memsim.reads_per_job", unit: "count", better: "lower", exact: true},
	{name: "memsim.writes_per_job", unit: "count", better: "lower", exact: true},
	{name: "coherence.fetches_per_job", unit: "count", better: "lower", exact: true},
	{name: "coherence.invalidations_per_job", unit: "count", better: "lower", exact: true},
	{name: "coherence.writebacks_per_job", unit: "count", better: "lower", exact: true},
	{name: "coherence.read_ns", unit: "ns", better: "lower"},
	{name: "coherence.write_ns", unit: "ns", better: "lower"},
	{name: "topology.caps_ns", unit: "ns", better: "lower"},
	{name: "topology.path_ns", unit: "ns", better: "lower"},
	{name: "topology.access_ns", unit: "ns", better: "lower"},
	{name: "telemetry.add_ns", unit: "ns", better: "lower"},
	{name: "telemetry.observe_ns", unit: "ns", better: "lower"},
	{name: "telemetry.record_ns", unit: "ns", better: "lower"},
	{name: "telemetry.spans_per_job", unit: "count", better: "lower", exact: true},
	{name: "core.tasks_per_job", unit: "count", better: "lower", exact: true},
	{name: "core.batch_size_mean", unit: "count", better: "higher"},
	{name: "core.epochs_per_kjob", unit: "count", better: "lower"},
	{name: "core.queue_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "core.slo_met_share", unit: "share", better: "higher", exact: true},
	{name: "core.slo_refused_share", unit: "share", better: "lower", exact: true},
	{name: "core.retries_per_kjob", unit: "count", better: "lower", exact: true},
	{name: "core.skipped_tasks_per_retry", unit: "count", better: "higher", exact: true},
	{name: "core.solo_ns_per_task", unit: "ns", better: "lower"},
	{name: "core.stream_watermark_ms", unit: "ms", better: "lower", exact: true},
	{name: "fault.checkpoints_per_job", unit: "count", better: "lower", exact: true},
	{name: "fault.restores_per_kjob", unit: "count", better: "lower", exact: true},
	{name: "fault.restored_bytes_per_kjob", unit: "B", better: "lower", exact: true},
	{name: "fault.put_ns", unit: "ns", better: "lower"},
	{name: "fault.get_ns", unit: "ns", better: "lower"},
	{name: "cluster.verbs_per_job", unit: "count", better: "lower", exact: true},
	{name: "cluster.bytes_per_job", unit: "B", better: "lower", exact: true},
	{name: "cluster.write_ns", unit: "ns", better: "lower"},
	{name: "cluster.read_ns", unit: "ns", better: "lower"},
	{name: "cluster.allocslab_ns", unit: "ns", better: "lower"},
	{name: "shard.route_ns", unit: "ns", better: "lower"},
	{name: "shard.imbalance", unit: "ratio", better: "lower", exact: true},
	{name: "shard.rerouted_per_kjob", unit: "count", better: "lower", exact: true},
	{name: "stream.instantiate_ns_per_window", unit: "ns", better: "lower"},
	{name: "stream.pull_ns_per_event", unit: "ns", better: "lower"},
}

// throughputSlices is how many equal slices of the run phase jobs_per_s is
// the median of, so that one scheduler hiccup, the fill at the start and the
// drain at the end do not move it.
const throughputSlices = 20

// latencies returns done − due of the completed jobs, in ms, ascending.
func (p *phaseData) latencies() []float64 {
	out := make([]float64, 0, p.n)
	for i := 0; i < p.n; i++ {
		if r := p.rec(i); r.state == completed {
			out = append(out, float64(r.done-r.due)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// throughput is the median completion rate over equal slices of the phase.
func (p *phaseData) throughput() float64 {
	done := p.count(completed)
	slices := max(1, min(throughputSlices, done/50))
	width := float64(p.wall) / float64(slices)
	counts := make([]float64, slices)
	for i := 0; i < p.n; i++ {
		if r := p.rec(i); r.state == completed {
			counts[min(int(float64(r.done)/width), slices-1)]++
		}
	}
	return median(counts) / (width / 1e9)
}

// endToEnd computes the end-to-end metrics of a run.
func (m *measured) endToEnd() map[string]float64 {
	p := m.run
	jobs := float64(p.count(completed))
	var makespan float64
	for i := 0; i < p.n; i++ {
		makespan += float64(p.rec(i).makespan)
	}
	return map[string]float64{
		"jobs_per_s":            p.throughput(),
		"lat_p50_ms":            percentile(p.latencies(), 0.5),
		"allocs_per_job":        float64(m.after.mallocs-m.before.mallocs) / jobs,
		"alloc_kb_per_job":      float64(m.after.totalAlloc-m.before.totalAlloc) / 1024 / jobs,
		"virt_makespan_mean_us": makespan / jobs / 1e3,
		"setup_s":               m.setup.Seconds(),
	}
}

// counted computes the per-layer metrics that come from the run itself:
// counter deltas per completed job and the driver's own timings. The *_ns
// replays and the budget are added by layers.go.
func (m *measured) counted() map[string]float64 {
	p := m.run
	jobs := float64(p.count(completed))
	kjobs := jobs / 1000
	per := func(layer telemetry.Layer, name string) float64 {
		return counterDelta(m.before, m.after, layer, name) / jobs
	}
	var submit, wait float64
	late := make([]float64, 0, p.n)
	for i := 0; i < p.n; i++ {
		r := p.rec(i)
		submit += float64(r.ret - r.sent)
		wait += float64(r.done - r.ret)
		late = append(late, float64(r.sent-r.due)/1e6)
	}
	sort.Float64s(late)
	lat := p.latencies()
	out := map[string]float64{
		"driver.submit_ns":       submit / float64(p.n),
		"driver.wait_ns":         wait / float64(p.n),
		"driver.lat_p99_ms":      percentile(lat, 0.99),
		"driver.lat_samples":     float64(len(lat)),
		"driver.gen_late_p99_ms": percentile(late, 0.99),
		"driver.cpu_us_per_job":  float64(m.after.cpu-m.before.cpu) / 1e3 / jobs,
		"driver.gc_cpu_share":    (m.after.gcCPU - m.before.gcCPU) / (m.after.cpu - m.before.cpu).Seconds(),
		"driver.failed_share":    float64(p.count(failed)) / float64(p.n),
		// Live heap the idle, still open stack holds beyond what it held
		// before the run, without the driver's own records.
		"driver.retained_b_per_job": (float64(m.after.heap) - float64(m.before.heap) - float64(p.driverBytes())) / jobs,

		"placement.places_per_job":        per(telemetry.LayerRegion, "allocs"), // every Alloc asks the placer once
		"region.allocs_per_job":           per(telemetry.LayerRegion, "allocs"),
		"region.frees_per_job":            per(telemetry.LayerRegion, "frees"),
		"region.bytes_read_per_job":       per(telemetry.LayerRegion, "bytes_read"),
		"region.bytes_written_per_job":    per(telemetry.LayerRegion, "bytes_written"),
		"region.shares_per_job":           per(telemetry.LayerRegion, "shares"),
		"region.transfers_per_job":        per(telemetry.LayerRegion, "transfers_zero_copy") + per(telemetry.LayerRegion, "transfers_migrated"),
		"memsim.reads_per_job":            float64(m.after.reads-m.before.reads) / jobs,
		"memsim.writes_per_job":           float64(m.after.writes-m.before.writes) / jobs,
		"coherence.fetches_per_job":       per(telemetry.LayerCoherence, "fetches"),
		"coherence.invalidations_per_job": per(telemetry.LayerCoherence, "invalidations"),
		"coherence.writebacks_per_job":    per(telemetry.LayerCoherence, "writebacks"),
		"telemetry.spans_per_job":         float64(m.after.spans-m.before.spans) / jobs,

		"core.tasks_per_job":            float64(p.tally.tasks) / jobs,
		"core.batch_size_mean":          float64(p.tally.batchSum) / jobs,
		"core.epochs_per_kjob":          per(telemetry.LayerRuntime, "server_epochs") * 1000,
		"core.slo_refused_share":        float64(p.count(refused)) / float64(p.n),
		"core.retries_per_kjob":         float64(p.tally.attempts) / kjobs,
		"core.stream_watermark_ms":      float64(p.watermark) / 1e6,
		"fault.checkpoints_per_job":     per(telemetry.LayerFault, "checkpoints"),
		"fault.restores_per_kjob":       per(telemetry.LayerFault, "restores") * 1000,
		"fault.restored_bytes_per_kjob": per(telemetry.LayerFault, "restored_bytes") * 1000,
		"cluster.verbs_per_job":         float64(m.after.verbs-m.before.verbs) / jobs,
		"cluster.bytes_per_job":         float64(m.after.bytes-m.before.bytes) / jobs,
	}
	if m.s.kind == streamLoop {
		out["driver.submit_ns"] = float64(p.streamSubmit) // the one SubmitStream call
	}
	if h := m.st.tel.Hist(telemetry.LayerRuntime, "server_queue_wait"); h != nil {
		// The histogram cannot be windowed, so this includes the ramp-up.
		out["core.queue_wait_p50_ms"] = float64(h.Quantile(0.5)) / float64(time.Millisecond)
	}
	if p.tally.sloGuaranteed > 0 {
		// Refusals are misses: the share is of everything submitted.
		out["core.slo_met_share"] = float64(p.tally.sloMet) / float64(p.n)
	}
	if p.tally.retried > 0 {
		out["core.skipped_tasks_per_retry"] = float64(p.tally.skipped) / float64(p.tally.retried)
	}
	if len(m.after.shards) > 0 {
		var most, sum, rerouted float64
		for i, sh := range m.after.shards {
			routed := float64(sh.Submitted - m.before.shards[i].Submitted)
			most, sum = max(most, routed), sum+routed
			rerouted += float64(sh.Rerouted - m.before.shards[i].Rerouted)
		}
		out["shard.imbalance"] = most / (sum / float64(len(m.after.shards)))
		out["shard.rerouted_per_kjob"] = rerouted / kjobs
	}
	return out
}
