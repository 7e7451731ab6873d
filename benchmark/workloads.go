package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fixed serving configuration. Nothing here is derived from the host's
// core count, so numbers from two hosts describe the same deployment.
const (
	epochWorkers = 2
	taskWorkers  = 2
	maxBatch     = 8
	queueDepth   = 1024
	poolJobs     = 8192 // jobs (or stream payloads) built in set-up and cycled
	closedTokens = 64   // tickets outstanding in a closed loop
	pacedWaiters = 512  // waiter goroutines of the open loop; its backlog stays far below
	pacedRate    = 1500 // offered jobs per wall second on serve_paced
	pacedRho     = 0.9  // virtual utilisation the SLO model is offered
	sloWorkers   = 4
	sloDeadline  = 50 * time.Microsecond
	faultRate    = 0.05
	setupReps    = 15              // setup_s is the median of at least this many set-ups,
	setupRepsMax = 400             // of at most this many,
	setupBudget  = 2 * time.Second // and of as many as fit in this long
)

type loopKind int

const (
	closedLoop loopKind = iota
	openLoop
	streamLoop
)

// spec is one workload: what stack it serves on, what jobs it offers and
// how long its phases are when the run length is a job count.
type spec struct {
	name string
	why  string
	kind loopKind
	// realFraction is workload.MixConfig.RealFraction: -1 nil bodies only,
	// 1 real Table 3 bodies only, 0 the default 8 % real.
	realFraction float64
	sharded      bool // 2-shard cluster with recovery and fault injection
	slo          bool
	// exclude drops the mix's draws of this job name from the pool. See
	// "Known failure" in README.md: a workload must not offer operations
	// that are known to fail.
	exclude   string
	ramp, run int // jobs (windows); run applies when -seconds is 0
	verify    int // run-phase prefix the reference pass replays
	smoked    bool
}

// The names are permanent: BENCHMARK.json, baselines and later PRs refer
// to them.
var specs = []spec{
	{
		name: "serve_declared", kind: closedLoop, realFraction: -1,
		why:  "closed loop of nil-body jobs on one server: all time is engine overhead (admit, plan, dispatch, output alloc, retire)",
		ramp: 5000, run: 150000, verify: 2000,
	},
	{
		name: "serve_real", kind: closedLoop, realFraction: 1,
		why:  "closed loop of real-body graph and DBMS jobs: time is region access, coherence, topology and telemetry, not the engine",
		ramp: 500, run: 16000, verify: 1000,
	},
	{
		name: "serve_paced", kind: openLoop, slo: true,
		why:  "open loop at a fixed 1500 jobs/s through SLO admission: the latency workload, timed from each job's due time",
		ramp: 1500, run: 30000, verify: 2000,
	},
	{
		name: "cluster_recover", kind: closedLoop, sharded: true, exclude: "dbms",
		why:  "closed loop on a 2-shard cluster with checkpoints and 5% injected task faults: the write, restore, route and ledger paths",
		ramp: 4000, run: 80000, verify: 2000,
	},
	{
		name: "stream_windows", kind: streamLoop,
		why:  "one stream of tumbling windows, 4 in flight, retired in order: throughput is set by per-window latency, not batch fullness",
		ramp: 2000, run: 60000, verify: 2000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke is the workload at one fiftieth of its lengths: enough to exercise
// every path, too short to measure anything.
func (s spec) smoke() spec {
	s.ramp = max(s.ramp/50, 8)
	s.run = max(s.run/50, 64)
	s.verify = max(s.verify/50, 32)
	s.smoked = true
	return s
}

// setupBudget is how long the untraced run repeats its set-up for.
func (s spec) setupBudget() time.Duration {
	if s.smoked {
		return setupBudget / 50
	}
	return setupBudget
}

// input is everything a workload offers the program, made from the seed in
// set-up. The program only ever sees these generated jobs.
type input struct {
	jobs     []*dataflow.Job // closed and open loops cycle these in order
	payloads [][]byte        // stream_windows cycles these as event payloads
	// Open loop: per-submission exponential draws (mean 1), shared by the
	// wall schedule and the virtual arrival clock, and the virtual arrival
	// rate that offers the SLO model pacedRho utilisation.
	gaps        []float64
	virtualRate float64
}

func buildInput(s spec, seed int64) *input {
	in := &input{}
	if s.kind == streamLoop {
		rng := rand.New(rand.NewSource(seed))
		in.payloads = make([][]byte, poolJobs)
		for i := range in.payloads {
			p := make([]byte, streamCfg.EventSize)
			rng.Read(p)
			binary.BigEndian.PutUint32(p[:4], uint32(rng.Intn(streamCfg.Keys)))
			in.payloads[i] = p
		}
		return in
	}
	mix := workload.NewMix(workload.MixConfig{Seed: seed, RealFraction: s.realFraction})
	in.jobs = make([]*dataflow.Job, 0, poolJobs)
	for len(in.jobs) < poolJobs {
		if j := mix.Next(); j.Name() != s.exclude {
			in.jobs = append(in.jobs, j)
		}
	}
	if s.kind == openLoop {
		rng := rand.New(rand.NewSource(seed ^ 0x7061636564)) // "paced": unrelated to the mix draws
		in.gaps = make([]float64, poolJobs)
		for i := range in.gaps {
			in.gaps[i] = rng.ExpFloat64()
		}
	}
	return in
}

// fingerprint hashes everything the seed decided: each job's name and each
// task's identity, declared cost and edges, the stream payloads and the
// arrival draws. Same seed, same fingerprint; it is recorded with every
// result so that two runs can be shown to have offered the same work.
func (in *input) fingerprint() uint64 {
	h := fnv.New64a()
	for _, j := range in.jobs {
		fmt.Fprintf(h, "%s\n", j.Name())
		for _, t := range j.Tasks() {
			fmt.Fprintf(h, "%s %v %d:", t.ID(), t.Props().Ops, t.Props().OutputBytes)
			for _, s := range t.Succs() {
				fmt.Fprintf(h, " %s", s.ID())
			}
			h.Write([]byte{'\n'})
		}
	}
	for _, p := range in.payloads {
		h.Write(p)
	}
	for _, g := range in.gaps {
		fmt.Fprintf(h, "%v\n", g)
	}
	return h.Sum64()
}

// priceVirtualRate derives the virtual arrival rate that loads sloWorkers
// to pacedRho, by pricing a sample of the pool with the scheduler's own
// estimator — the derivation cmd/loadgen uses.
func (in *input) priceVirtualRate(rt *core.Runtime) error {
	const sample = 256
	var total time.Duration
	for _, j := range in.jobs[:sample] {
		est, _, err := sched.EstimateJob(j, rt.Topology(), rt.Scheduler())
		if err != nil {
			return fmt.Errorf("pricing %s: %w", j.Name(), err)
		}
		total += est.Makespan
	}
	in.virtualRate = pacedRho * sloWorkers / (total / sample).Seconds()
	return nil
}

// streamCfg is the stream_windows window shape. Windows is 1 because the
// events come from the seeded source below, not from the spec's own slice.
var streamCfg = workload.StreamConfig{
	Windows: 1, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 4,
}

// streamSpec is workload.Stream with its source replaced by one that cycles
// the seeded payload pool, starting at event firstEvent, for `windows`
// windows, so events are never materialised up front. onPull is called with
// the index of each window as its first event is pulled: the moment the
// window is due.
func (in *input) streamSpec(firstEvent, windows int, stop func() bool, onPull func(window int)) stream.Spec {
	sp := workload.Stream(streamCfg)
	n, total := 0, windows*streamCfg.WindowSize
	sp.Source = stream.SourceFunc(func() (stream.Event, bool) {
		if n%streamCfg.WindowSize == 0 {
			// Only stop on a window boundary: a partial window would be a
			// different job shape.
			if n >= total || (stop != nil && stop()) {
				return stream.Event{}, false
			}
			if onPull != nil {
				onPull(n / streamCfg.WindowSize)
			}
		}
		p := in.payloads[(firstEvent+n)%len(in.payloads)]
		n++
		return stream.Event{Key: uint64(binary.BigEndian.Uint32(p[:4])), Payload: p}, true
	})
	return sp
}

// stack is the serving surface under test: one server, or a sharded
// cluster, behind the submission call both share.
type stack struct {
	srv    *core.Server
	cl     *shard.Cluster
	tel    *telemetry.Registry
	submit func(context.Context, *dataflow.Job, ...core.SubmitOptions) (*core.Ticket, error)
}

// newStack builds the workload's serving stack. reference selects the
// single-worker configuration the verification pass replays on.
func newStack(s spec, seed int64, reference bool) (*stack, error) {
	tel := telemetry.NewRegistry()
	cfg := core.ServerConfig{
		ExecConfig:   core.ExecConfig{Telemetry: tel, Workers: taskWorkers},
		EpochWorkers: epochWorkers, MaxBatch: maxBatch, QueueDepth: queueDepth, Block: true,
	}
	if reference {
		cfg.EpochWorkers, cfg.Workers = 1, 1
	}
	if s.slo {
		cfg.SLO = &core.SLOPolicy{Workers: sloWorkers}
	}
	st := &stack{tel: tel}
	if !s.sharded {
		srv, err := core.NewServer(cfg)
		if err != nil {
			return nil, err
		}
		st.srv, st.submit = srv, srv.SubmitAsync
		return st, nil
	}
	cfg.Inject = fault.NewInjector(uint64(seed), faultRate, 1)
	cfg.Recovery = &core.RecoveryPolicy{MaxAttempts: 8, PartialReplay: true}
	cl, err := shard.NewCluster(shard.Config{Shards: 2, Server: cfg})
	if err != nil {
		return nil, err
	}
	st.cl, st.submit = cl, cl.SubmitAsync
	return st, nil
}

// runtimes lists the runtime of the server, or of every shard.
func (st *stack) runtimes() []*core.Runtime {
	if st.cl == nil {
		return []*core.Runtime{st.srv.Runtime()}
	}
	var rts []*core.Runtime
	for _, sh := range st.cl.Shards() {
		rts = append(rts, sh.Server().Runtime())
	}
	return rts
}

func (st *stack) close() error {
	if st.cl != nil {
		return st.cl.Close(context.Background())
	}
	return st.srv.Close(context.Background())
}

// fabricStats sums the cluster fabric's verb and byte counters; zero on a
// single server, which has no fabric.
func (st *stack) fabricStats() (verbs, bytes uint64) {
	if st.cl == nil {
		return 0, 0
	}
	return st.cl.Fabric().Stats()
}

// shardStats is the per-shard routing ledger; nil on a single server.
func (st *stack) shardStats() []shard.ShardStats {
	if st.cl == nil {
		return nil
	}
	return st.cl.Stats()
}
