// Command disaggsim runs one of the built-in dataflow workloads on the
// simulated disaggregated testbed and prints the runtime's report:
// where every task was scheduled, which physical device every Memory
// Region landed on, the virtual makespan, and the cross-layer profile.
//
// Usage:
//
//	disaggsim -job hospital
//	disaggsim -job dbms -scheduler fifo -placer worst
//	disaggsim -job ml -profile
//	disaggsim -jobs hospital,dbms,streaming     # concurrent multi-job serving
//	disaggsim -serve -jobs 32 -workers 8        # admission-controlled serving
//	disaggsim -serve -jobs hospital,dbms,ml     # serve an explicit job mix
//	disaggsim -serve -jobs 16 -faultrate 0.5 -recover   # fault-tolerant serving
//	disaggsim -serve -shards 2 -jobs hospital,dbms,ml,graph   # sharded serving
//	disaggsim -serve -shards 2 -migrate         # + cross-shard region migration
//	disaggsim -serve -shards 3 -crash 1 -recover        # failover re-route demo
//	disaggsim -stream -windows 8                # windowed streaming dataflow
//	disaggsim -stream -windows 8 -crashwindow 3 -recover  # resume a cut stream
//
// Jobs: hospital, dbms, ml, hpc, streaming, graph.
// Schedulers: heft (default), fifo, rr.
// Placers: best (default), first, worst, random.
//
// With -serve, the listed jobs (or N copies of -job when -jobs is a plain
// number) are submitted from parallel goroutines through core.Server's
// bounded admission queue and executed by a worker pool that batches them
// into shared virtual-time epochs.
//
// With -serve -shards N, submissions are consistent-hashed across N server
// shards over the cluster fabric; -crash K kills shard K mid-stream to
// demonstrate failover, and -migrate runs maintenance sweeps that evict
// cold Memory Regions into remote shards' memory pools (recalled on next
// access — reports stay byte-identical to solo runs either way).
//
// With -stream, the streaming workload is served window by window through
// Server.SubmitStream; -crashwindow W (with -recover) cancels the stream
// after W retired windows and resumes it from the checkpoint store.
//
// -faultrate injects deterministic task faults (seeded by -seed) into that
// fraction of task executions; each chosen task fails once and then
// succeeds. Without -recover the failures surface to the submitters; with
// -recover every job checkpoints task outputs into a replicated far-memory
// store and is retried (-maxattempts) with checkpointed tasks restored
// instead of re-executed. Adding -partialreplay keeps retries byte-identical
// in virtual time but restores checkpoint payloads lazily — only snapshots a
// re-executed task actually reads come back from the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/placement"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		fatal(err)
	}

	var placer region.Placer
	switch o.placer {
	case "best":
		placer = placement.NewBestFit(topo)
	case "first":
		placer = region.FirstFit{Topo: topo}
	case "worst":
		placer = placement.NewWorst(topo)
	case "random":
		placer = placement.NewRandom(topo, o.seed)
	default:
		fatal(fmt.Errorf("unknown placer %q", o.placer))
	}

	var scheduler sched.Scheduler
	switch o.scheduler {
	case "heft":
		scheduler = sched.HEFT{}
	case "fifo":
		scheduler = sched.FIFO{}
	case "rr":
		scheduler = sched.RoundRobin{}
	default:
		fatal(fmt.Errorf("unknown scheduler %q", o.scheduler))
	}

	buildJob := func(name string) (*dataflow.Job, error) {
		switch name {
		case "hospital":
			return workload.Hospital(workload.DefaultHospital()), nil
		case "dbms":
			return workload.DBMS(workload.DefaultDBMS()), nil
		case "ml":
			return workload.ML(workload.DefaultML()), nil
		case "hpc":
			return workload.HPC(workload.DefaultHPC()), nil
		case "streaming":
			return workload.StreamWindow(workload.DefaultStream(), 0), nil
		case "graph":
			return workload.Graph(workload.DefaultGraph()), nil
		default:
			return nil, fmt.Errorf("unknown job %q", name)
		}
	}

	tel := telemetry.NewRegistry()
	var inject *fault.Injector
	if o.faultRate > 0 {
		inject = fault.NewInjector(uint64(o.seed), o.faultRate, 1)
	}
	rt, err := core.New(core.ExecConfig{
		Topology: topo, Placer: placer, Scheduler: scheduler, Telemetry: tel,
		Inject: inject, Workers: o.execWorkers,
	})
	if err != nil {
		fatal(err)
	}

	if o.stream || o.serve {
		if o.stream {
			err = serveStream(rt, o)
		} else {
			err = serveJobs(rt, buildJob, o, scheduler, inject)
		}
		if err != nil {
			fatal(err)
		}
		if o.profile {
			fmt.Println()
			fmt.Print(tel.Report())
		}
		writeTrace(tel, o.trace)
		return
	}

	if o.jobs != "" {
		var jobs []*dataflow.Job
		for _, name := range strings.Split(o.jobs, ",") {
			j, err := buildJob(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			jobs = append(jobs, j)
		}
		rep, err := rt.RunAll(jobs, core.MultiConfig{ComputeStretch: true})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
		fmt.Printf("sequential baseline: %v (concurrency saves %.1f%%)\n",
			rep.SumIsolated, 100*(1-float64(rep.Makespan)/float64(rep.SumIsolated)))
		if o.profile {
			fmt.Println()
			fmt.Print(tel.Report())
		}
		writeTrace(tel, o.trace)
		return
	}

	job, err := buildJob(o.job)
	if err != nil {
		fatal(err)
	}

	var rep *core.Report
	if o.recover {
		rep, err = rt.Run(job, *recoveryPolicy(o))
	} else {
		rep, err = rt.Run(job)
	}
	if err != nil {
		fatal(err)
	}
	if o.recover {
		fmt.Printf("recovered run: %d attempt(s), %d restore(s), %d task(s) skipped, %d replayed, %d bytes restored\n",
			rep.Attempts, tel.Counter(telemetry.LayerFault, "restores"),
			rep.SkippedTasks, rep.ReplayedTasks,
			tel.Counter(telemetry.LayerFault, "restored_bytes"))
	}
	fmt.Print(rep.String())
	fmt.Println("\npeak device allocation:")
	for _, m := range topo.Memories() {
		if b, ok := rep.PeakDeviceBytes[m.ID]; ok && b > 0 {
			fmt.Printf("  %-18s %d bytes\n", m.ID, b)
		}
	}
	if o.profile {
		fmt.Println()
		fmt.Print(tel.Report())
	}
	writeTrace(tel, o.trace)
}

// recoveryPolicy is -recover as a policy: checkpoints go to the engine's
// default store (2-way replicated over a private 3-node fabric). Nil without
// the flag.
func recoveryPolicy(o *options) *core.RecoveryPolicy {
	if !o.recover {
		return nil
	}
	return &core.RecoveryPolicy{MaxAttempts: o.maxAttempts, PartialReplay: o.partialReplay}
}

// serverConfig is the one ServerConfig behind -serve and -stream, whether one
// server is built from it or a cluster of them.
func serverConfig(o *options) core.ServerConfig {
	return core.ServerConfig{
		EpochWorkers: o.workers, QueueDepth: o.queue, MaxBatch: o.batch,
		Block: true, Recovery: recoveryPolicy(o),
	}
}

// serveJobs is serve mode. -jobs is either a plain number (that many copies
// of -job) or a comma-separated mix; every job goes through one
// core.Submitter — a server over rt, or with -shards N a cluster of N servers
// (shard.go) — enqueued up front via the ticket API and then collected, so no
// per-submission goroutine is needed.
func serveJobs(rt *core.Runtime, buildJob func(string) (*dataflow.Job, error), o *options, scheduler sched.Scheduler, inject *fault.Injector) error {
	names := serveJobNames(o)
	jobs := make([]*dataflow.Job, len(names))
	for i, name := range names {
		j, err := buildJob(name)
		if err != nil {
			return err
		}
		jobs[i] = j
	}

	var (
		sub core.Submitter
		sc  *shardedServe // what -shards adds; nil without it
		err error
	)
	cfg := serverConfig(o)
	if o.shards > 1 {
		// Each shard builds its own runtime, so hand over what rt was built
		// from — except the placer, which is bound to rt's topology.
		cfg.ExecConfig = core.ExecConfig{
			Scheduler: scheduler, Workers: o.execWorkers, Inject: inject, Telemetry: rt.Telemetry(),
		}
		if sc, err = startSharded(cfg, o); err == nil {
			sub = sc.c
		}
	} else {
		cfg.Runtime = rt
		sub, err = core.NewServer(cfg)
	}
	if err != nil {
		return err
	}

	tickets := make([]*core.Ticket, len(jobs))
	for i, j := range jobs {
		if tickets[i], err = sub.SubmitAsync(context.Background(), j); err != nil {
			return err
		}
		if sc != nil && i == len(jobs)/2 {
			if err := sc.crash(i + 1); err != nil {
				return err
			}
		}
	}
	failed := 0
	for i, tk := range tickets {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			failed++
			fmt.Printf("  %-16s #%-3d FAILED: %v\n", names[i], i, err)
			continue
		}
		line := fmt.Sprintf("  %-16s #%-3d ", names[i], i)
		if rep.Shard != "" {
			line += fmt.Sprintf("on %-7s ", rep.Shard)
		}
		line += fmt.Sprintf("makespan %12v", rep.Makespan)
		if rep.Attempts > 1 {
			line += fmt.Sprintf("  (recovered, %d attempts)", rep.Attempts)
		}
		if rep.SkippedTasks > 0 {
			line += fmt.Sprintf("  (resumed: %d tasks restored)", rep.SkippedTasks)
		}
		fmt.Println(line)
	}
	fmt.Printf("served %d of %d jobs: %d shard(s), %d workers each (queue %d, batch %d)\n",
		len(jobs)-failed, len(jobs), max(o.shards, 1), o.workers, o.queue, o.batch)
	if sc != nil {
		sc.finish()
	}
	if err := sub.Close(context.Background()); err != nil {
		return err
	}
	tel := sub.Runtime().Telemetry()
	fmt.Printf("admission: admitted %d, completed %d, rejected %d, canceled %d, failed %d, epochs %d\n",
		tel.Counter(telemetry.LayerRuntime, "server_admitted"),
		tel.Counter(telemetry.LayerRuntime, "server_completed"),
		tel.Counter(telemetry.LayerRuntime, "server_rejected"),
		tel.Counter(telemetry.LayerRuntime, "server_canceled"),
		tel.Counter(telemetry.LayerRuntime, "server_failed"),
		tel.Counter(telemetry.LayerRuntime, "server_epochs"))
	if h := tel.Hist(telemetry.LayerRuntime, "server_queue_wait"); h != nil {
		fmt.Printf("queue wait: p50 %v, p99 %v, max %v (n=%d)\n",
			h.Quantile(0.50), h.Quantile(0.99), h.Max(), h.Count())
	}
	if inject != nil || o.recover {
		fmt.Printf("faults: injected %d; recovery: retries %d, checkpoints %d, restores %d, recovered jobs %d\n",
			inject.Injected(),
			tel.Counter(telemetry.LayerFault, "job_retries"),
			tel.Counter(telemetry.LayerFault, "checkpoints"),
			tel.Counter(telemetry.LayerFault, "restores"),
			tel.Counter(telemetry.LayerRuntime, "server_recovered"))
		fmt.Printf("restore I/O: %d bytes fetched, %d lazy hydration(s)\n",
			tel.Counter(telemetry.LayerFault, "restored_bytes"),
			tel.Counter(telemetry.LayerFault, "lazy_hydrations"))
	}
	return nil
}

// serveJobNames expands -jobs/-job into the submission name list.
func serveJobNames(o *options) []string {
	n, err := strconv.Atoi(strings.TrimSpace(o.jobs))
	switch {
	case o.jobs == "":
		n = 8
	case err != nil || n <= 0:
		return splitTrim(o.jobs)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = o.job
	}
	return names
}

func writeTrace(tel *telemetry.Registry, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tel.ExportChromeTrace(f); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disaggsim:", err)
	os.Exit(1)
}

func splitTrim(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}
