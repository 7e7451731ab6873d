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
// bounded admission queue and executed by a worker pool that runs them in
// batches, in which every job is priced from an idle machine.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "disaggsim:", err)
		os.Exit(1)
	}
}

// errUsage reports flags that did not parse; the flag package has already
// printed why, with the usage text.
var errUsage = errors.New("usage")

// run is the whole command: it parses args, runs what they ask for and
// writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("disaggsim", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return err
	}

	var placer region.Placer
	switch o.placer {
	case "best":
		placer = placement.NewBestFit(topo)
	case "first":
		placer = placement.NewFirstFit(topo)
	case "worst":
		placer = placement.NewWorst(topo)
	case "random":
		placer = placement.NewRandom(topo, o.seed)
	default:
		return fmt.Errorf("unknown placer %q", o.placer)
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
		return fmt.Errorf("unknown scheduler %q", o.scheduler)
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
	ec := core.ExecConfig{
		Topology: topo, Placer: placer, Scheduler: scheduler, Telemetry: tel,
		Inject: inject, Workers: o.execWorkers,
	}
	// profile ends every mode: the telemetry profile and the trace file.
	profile := func() error {
		if o.profile {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, tel.Report())
		}
		return writeTrace(stdout, tel, o.trace)
	}
	if o.stream || o.serve {
		var err error
		if o.stream {
			err = serveStream(stdout, ec, o)
		} else {
			err = serveJobs(stdout, ec, buildJob, o)
		}
		if err != nil {
			return err
		}
		return profile()
	}

	rt, err := core.New(ec)
	if err != nil {
		return err
	}
	if o.jobs != "" {
		var jobs []*dataflow.Job
		for _, name := range strings.Split(o.jobs, ",") {
			j, err := buildJob(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
		rep, err := rt.RunAll(jobs)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.String())
		fmt.Fprintf(stdout, "sequential baseline: %v (concurrency saves %.1f%%)\n",
			rep.SumIsolated, 100*(1-float64(rep.Makespan)/float64(rep.SumIsolated)))
		return profile()
	}

	job, err := buildJob(o.job)
	if err != nil {
		return err
	}

	var rep *core.Report
	if o.recover {
		rep, err = rt.Run(job, *recoveryPolicy(o))
	} else {
		rep, err = rt.Run(job)
	}
	if err != nil {
		return err
	}
	if o.recover {
		fmt.Fprintf(stdout, "recovered run: %d attempt(s), %d restore(s), %d task(s) skipped, %d replayed, %d bytes restored\n",
			rep.Attempts, tel.Counter(telemetry.LayerFault, "restores"),
			rep.SkippedTasks, rep.ReplayedTasks,
			tel.Counter(telemetry.LayerFault, "restored_bytes"))
	}
	fmt.Fprint(stdout, rep.String())
	fmt.Fprintln(stdout, "\npeak device allocation:")
	for _, m := range topo.Memories() {
		if i := slices.IndexFunc(rep.PeakDeviceBytes, func(p core.DeviceBytes) bool { return p.Device == m.ID }); i >= 0 {
			fmt.Fprintf(stdout, "  %-18s %d bytes\n", m.ID, rep.PeakDeviceBytes[i].Bytes)
		}
	}
	return profile()
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
// core.Submitter — a server built from ec, or with -shards N a cluster of N
// servers (shard.go) — enqueued up front via the ticket API and then
// collected, so no per-submission goroutine is needed.
func serveJobs(stdout io.Writer, ec core.ExecConfig, buildJob func(string) (*dataflow.Job, error), o *options) error {
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
	cfg.ExecConfig = ec
	if o.shards > 1 {
		// Each shard builds its own topology, and the placer is bound to
		// ec's.
		cfg.Topology, cfg.Placer = nil, nil
		if sc, err = startSharded(cfg, o); err == nil {
			sub = sc.c
		}
	} else {
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
			if err := sc.crash(stdout, i+1); err != nil {
				return err
			}
		}
	}
	failed, faulted := 0, 0
	for i, tk := range tickets {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			failed++
			if errors.Is(err, fault.ErrInjected) {
				faulted++
			}
			fmt.Fprintf(stdout, "  %-16s #%-3d FAILED: %v\n", names[i], i, err)
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
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "served %d of %d jobs: %d shard(s), %d workers each (queue %d, batch %d)\n",
		len(jobs)-failed, len(jobs), max(o.shards, 1), o.workers, o.queue, o.batch)
	if sc != nil {
		sc.finish(stdout)
	}
	if err := sub.Close(context.Background()); err != nil {
		return err
	}
	tel := sub.Runtime().Telemetry()
	fmt.Fprintf(stdout, "admission: admitted %d, completed %d, rejected %d, canceled %d, failed %d, epochs %d\n",
		tel.Counter(telemetry.LayerRuntime, "server_admitted"),
		tel.Counter(telemetry.LayerRuntime, "server_completed"),
		tel.Counter(telemetry.LayerRuntime, "server_rejected"),
		tel.Counter(telemetry.LayerRuntime, "server_canceled"),
		tel.Counter(telemetry.LayerRuntime, "server_failed"),
		tel.Counter(telemetry.LayerRuntime, "server_epochs"))
	if h := tel.Hist(telemetry.LayerRuntime, "server_queue_wait"); h != nil {
		fmt.Fprintf(stdout, "queue wait: p50 %v, p99 %v, max %v (n=%d)\n",
			h.Quantile(0.50), h.Quantile(0.99), h.Max(), h.Count())
	}
	if ec.Inject != nil || o.recover {
		// Only the injector fails an attempt here: each retry follows one
		// injected fault, and each job that failed with one ends at another.
		retries := tel.Counter(telemetry.LayerFault, "job_retries")
		fmt.Fprintf(stdout, "faults: injected %d; recovery: retries %d, checkpoints %d, restores %d, recovered jobs %d\n",
			retries+int64(faulted), retries,
			tel.Counter(telemetry.LayerFault, "checkpoints"),
			tel.Counter(telemetry.LayerFault, "restores"),
			tel.Counter(telemetry.LayerRuntime, "server_recovered"))
		fmt.Fprintf(stdout, "restore I/O: %d bytes fetched, %d lazy hydration(s)\n",
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

// writeTrace writes the Chrome trace to path, when one is named.
func writeTrace(stdout io.Writer, tel *telemetry.Registry, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tel.ExportChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
	if kept, recorded := len(tel.Spans()), tel.SpansRecorded(); recorded > int64(kept) {
		fmt.Fprintf(stdout, "trace holds the last %d of %d spans\n", kept, recorded)
	}
	return nil
}

func splitTrim(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}
