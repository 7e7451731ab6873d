// Command loadgen replays an open-loop, production-shaped traffic stream
// against the admission-controlled serving engine and reports the
// application-visible latency distributions (p50/p99/p999) plus the
// admission ledger. It is the CLI face of internal/loadgen.
//
// The run is seed-deterministic end to end: arrivals, job mix, deadlines,
// and therefore every SLO admission decision. -repeat N replays the same
// configuration against N fresh serving stacks and fails (exit 1) if any
// replay's admission signature or ledger diverges — the reproducibility
// self-check CI runs in `make loadgen-smoke`.
//
// Outputs: a human summary on stdout, the full loadgen.Result as JSON via
// -out, and a benchgate-compatible test2json stream via -bench-out whose
// metrics (admitted, slo-met) are fixed-seed deterministic counts, so the
// smoke gate is immune to machine speed.
//
// Examples:
//
//	loadgen -n 100000 -process poisson -rho 1.3 -deadline 50us
//	loadgen -n 100000 -process bursty -burst 32 -diurnal 0.5 -rho 1.3 -deadline 50us
//	loadgen -n 4000 -rho 1.5 -deadline 40us -repeat 2 -bench-out BENCH_loadgen.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 100000, "submissions per run")
		seed     = flag.Int64("seed", 42, "seed for arrivals, mix, and (hence) admission decisions")
		process  = flag.String("process", "poisson", "arrival process: poisson | bursty")
		rate     = flag.Float64("rate", 0, "arrival rate, jobs per virtual second (0: derive from -rho)")
		rho      = flag.Float64("rho", 1.3, "target utilization when -rate is 0 (>1 overloads)")
		burst    = flag.Int("burst", 16, "burst width for -process bursty")
		diurnal  = flag.Float64("diurnal", 0, "diurnal rate-modulation amplitude in [0,1)")
		period   = flag.Duration("period", 0, "diurnal period in virtual time (0: one cycle per run)")
		deadline = flag.Duration("deadline", 50*time.Microsecond, "per-job completion deadline in virtual time (0: no SLO gating)")
		warmup   = flag.Int("warmup", 0, "submissions excluded from latency stats")
		pace     = flag.Float64("pace", 0, "wall pacing: virtual seconds per wall second (0: unpaced)")
		realFrac = flag.Float64("real", 0.08, "fraction of real-body jobs in the mix (negative: none)")

		workers  = flag.Int("workers", 4, "epoch workers (also the SLO model's pool width)")
		maxBatch = flag.Int("maxbatch", 8, "max jobs folded into one serving batch")
		queue    = flag.Int("queue", 1024, "admission queue depth")
		downTier = flag.Bool("downtier", false, "admit predicted deadline misses as best-effort instead of rejecting")

		scaleMax    = flag.Int("autoscale-max", 0, "enable auto-scaling up to this many workers (0: off)")
		scaleTarget = flag.Duration("autoscale-target", 10*time.Millisecond, "queue-wait p99 the auto-scaler steers toward")

		shards = flag.Int("shards", 1, "consistent-hash the stream across this many server shards (each a full serving stack: own runtime, epoch pool, SLO gate)")

		repeat   = flag.Int("repeat", 1, "replays of the same config; signatures must match")
		out      = flag.String("out", "", "write the full Result JSON here")
		benchOut = flag.String("bench-out", "", "write a benchgate-compatible test2json stream here")
	)
	flag.Parse()

	cfg := loadgen.Config{
		N: *n, Seed: *seed, Process: loadgen.Process(*process),
		// The Rho→Rate derivation models the cluster-wide pool: workers per
		// shard times shards.
		Rate: *rate, Rho: *rho, Workers: *workers * max(*shards, 1), BurstSize: *burst,
		DiurnalAmplitude: *diurnal, DiurnalPeriod: *period,
		Deadline: *deadline, Warmup: *warmup, Pace: *pace,
		Mix: workload.MixConfig{RealFraction: *realFrac},
	}

	var first *loadgen.Result
	var firstStats []repro.ShardStats
	for rep := 0; rep < *repeat; rep++ {
		res, stats, err := runOnce(cfg, *shards, *workers, *maxBatch, *queue, *downTier, *scaleMax, *scaleTarget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(res.Summary())
		printShards(stats)
		if first == nil {
			first, firstStats = res, stats
			continue
		}
		if res.AdmissionSig != first.AdmissionSig {
			fmt.Fprintf(os.Stderr, "loadgen: replay %d admission signature %s != first replay %s — run is not reproducible\n",
				rep+1, res.AdmissionSig, first.AdmissionSig)
			os.Exit(1)
		}
		if res.Admitted != first.Admitted || res.BestEffort != first.BestEffort ||
			res.RejectedSLO != first.RejectedSLO {
			fmt.Fprintf(os.Stderr, "loadgen: replay %d ledger diverged (admitted %d/%d best-effort %d/%d rejected %d/%d)\n",
				rep+1, res.Admitted, first.Admitted, res.BestEffort, first.BestEffort, res.RejectedSLO, first.RejectedSLO)
			os.Exit(1)
		}
		for i := range stats {
			if stats[i].AdmissionSig != firstStats[i].AdmissionSig || stats[i].Submitted != firstStats[i].Submitted {
				fmt.Fprintf(os.Stderr, "loadgen: replay %d shard %s fingerprint %s/%d != first replay %s/%d — per-shard routing is not reproducible\n",
					rep+1, stats[i].Name, stats[i].AdmissionSig, stats[i].Submitted,
					firstStats[i].AdmissionSig, firstStats[i].Submitted)
				os.Exit(1)
			}
		}
		fmt.Printf("loadgen: replay %d reproduced signature %s\n", rep+1, res.AdmissionSig)
	}
	// A virtual SLO miss among admitted guaranteed-tier jobs means a shard's
	// admission model lied about its own pool — fail loudly.
	for _, st := range firstStats {
		if st.SLOMissed > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: shard %s reported %d virtual SLO misses among admitted jobs\n", st.Name, st.SLOMissed)
			os.Exit(3)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(first, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: marshal result: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
	}
	if *benchOut != "" {
		if err := writeBench(*benchOut, first, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
	}
}

// runOnce builds a fresh serving stack — a core.Submitter: one server, or a
// repro.Cluster when shards > 1 — replays the traffic through it, and tears it
// down. Sharded runs also return the per-shard routing/admission stats.
func runOnce(cfg loadgen.Config, shards, workers, maxBatch, queue int, downTier bool, scaleMax int, scaleTarget time.Duration) (*loadgen.Result, []repro.ShardStats, error) {
	scfg := core.ServerConfig{
		EpochWorkers: workers, MaxBatch: maxBatch, QueueDepth: queue,
		Block: true,
	}
	if cfg.Deadline > 0 {
		// Each shard's SLO gate models its own pool.
		scfg.SLO = &core.SLOPolicy{Workers: workers, DownTier: downTier}
	}
	if scaleMax > 0 {
		scfg.AutoScale = &core.AutoScalePolicy{Max: scaleMax, TargetP99: scaleTarget}
	}

	var (
		sub   core.Submitter
		stats = func() []repro.ShardStats { return nil }
		err   error
	)
	if shards > 1 {
		var c *repro.Cluster
		if c, err = repro.NewCluster(repro.ClusterConfig{Shards: shards, Server: scfg, TrackLoad: true}); err == nil {
			sub, stats = c, c.Stats
		}
	} else {
		sub, err = core.NewServer(scfg)
	}
	if err != nil {
		return nil, nil, err
	}

	res, err := loadgen.Run(context.Background(), sub, cfg)
	shardStats := stats() // before Close: Stats reads the live fabric
	closeCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if cerr := sub.Close(closeCtx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if scaleMax > 0 {
		fmt.Printf("loadgen: auto-scaler: scale-ups=%d scale-downs=%d\n",
			sub.Runtime().Telemetry().Counter("runtime", "server_scale_up"),
			sub.Runtime().Telemetry().Counter("runtime", "server_scale_down"))
	}
	return res, shardStats, nil
}

// printShards renders the per-shard routing/admission ledger.
func printShards(stats []repro.ShardStats) {
	for _, st := range stats {
		fmt.Printf("  shard %-7s admitted=%d best-effort=%d rejected-slo=%d rejected-queue=%d slo-missed=%d sig=%s est-work=%v fabric=%dv/%dB\n",
			st.Name, st.Admitted, st.BestEffort, st.RejectedSLO, st.RejectedQueue,
			st.SLOMissed, st.AdmissionSig, time.Duration(st.EstWorkNs), st.Fabric.Verbs, st.Fabric.Bytes)
	}
}

// writeBench emits the result as a one-benchmark test2json stream so
// cmd/benchgate can gate it. The gated units (admitted, slo-met) are
// deterministic counts for a fixed seed — machine-speed independent.
func writeBench(path string, r *loadgen.Result, shards int) error {
	name := fmt.Sprintf("BenchmarkLoadgen/%s", r.Process)
	if shards > 1 {
		// Sharded runs gate against their own baseline: K independent SLO
		// models admit a different (still deterministic) subset.
		name = fmt.Sprintf("BenchmarkLoadgen/%s/shards=%d", r.Process, shards)
	}
	line := fmt.Sprintf("%s\t       1\t%12d ns/op\t%10d admitted\t%10d slo-met\t%10d rejected\n",
		name, r.Elapsed.Nanoseconds(), r.Admitted, r.SLOMet, r.RejectedSLO)
	ev := struct{ Output string }{Output: line}
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
