// Package core implements the paper's runtime system (RTS, §2.3) and is the
// public programming-model API of this library. The RTS:
//
//  1. determines at runtime which physical memory device fits each task's
//     declared requirements (via the placement optimizer),
//  2. allocates the Memory Regions tasks request (via the region manager),
//  3. deallocates regions after the last owning task finishes,
//  4. schedules tasks resource-aware onto heterogeneous compute devices,
//
// and moves data between tasks by ownership transfer (Fig. 4), falling back
// to physical copies only when the receiving compute device cannot address
// the producer's placement within the declared properties.
//
// Applications build a dataflow.Job, attach declarative properties, and call
// Runtime.Run. Everything below the Job API — devices, interconnects,
// coherence, fault tolerance — is simulated (see DESIGN.md §2), so runs are
// deterministic and hardware-independent.
package core

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// ExecConfig is the execution-engine configuration shared by the two entry
// points: Runtime construction (New) and the serving front door
// (ServerConfig embeds it). Zero fields get production defaults: the
// reference single-node testbed, the best-fit placement optimizer, and the
// HEFT scheduler.
type ExecConfig struct {
	Topology  *topology.Topology
	Placer    region.Placer
	Scheduler sched.Scheduler
	Telemetry *telemetry.Registry
	// Inject, when set, is consulted before every task execution and may
	// fail it deterministically (fault.ErrInjected) — the chaos hook tests
	// and disaggsim use to exercise recovery. Nil injects nothing.
	Inject *fault.Injector
	// Workers bounds the wavefront executor's worker pool: how many tasks
	// may execute their real work (transfers, copies, bodies, checkpoint
	// I/O) concurrently — within one run, and across every job of a serving
	// batch, which shares a single pool. Virtual time is identical for every
	// value — see wavefront.go. Zero or negative defaults to GOMAXPROCS.
	Workers int
}

// Runtime is the RTS instance. Run is safe for concurrent submission from
// multiple goroutines: each call executes in its own virtual-time epoch
// (fresh device queues), so jobs never corrupt each other's clocks. For
// admission control, batching, and backpressure on top of this, use Server.
type Runtime struct {
	topo    *topology.Topology
	placer  region.Placer
	sched   sched.Scheduler
	regions *region.Manager
	tel     *telemetry.Registry
	inject  *fault.Injector
	workers int

	// free holds settled jobs' scratch for the next ones, freeBytes their
	// footprints' sum (scratch.go).
	freeMu    sync.Mutex
	free      []*scratch
	freeBytes int64
}

// New builds a runtime.
func New(cfg ExecConfig) (*Runtime, error) {
	topo := cfg.Topology
	if topo == nil {
		t, err := topology.BuildSingleNode(topology.DefaultSingleNode())
		if err != nil {
			return nil, err
		}
		topo = t
	}
	placer := cfg.Placer
	if placer == nil {
		placer = placement.NewBestFit(topo)
	}
	scheduler := cfg.Scheduler
	if scheduler == nil {
		scheduler = sched.HEFT{}
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placer, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	return &Runtime{topo: topo, placer: placer, sched: scheduler, regions: mgr, tel: tel, inject: cfg.Inject, workers: workers}, nil
}

// Workers reports the wavefront executor's worker-pool bound.
func (rt *Runtime) Workers() int { return rt.workers }

// Topology returns the hardware graph.
func (rt *Runtime) Topology() *topology.Topology { return rt.topo }

// Regions exposes the region manager (examples and tests).
func (rt *Runtime) Regions() *region.Manager { return rt.regions }

// Telemetry returns the cross-layer metrics registry.
func (rt *Runtime) Telemetry() *telemetry.Registry { return rt.tel }

// Scheduler returns the task scheduler — load harnesses use it to price
// sampled jobs (sched.EstimateJob) when deriving arrival rates from a
// target utilization.
func (rt *Runtime) Scheduler() sched.Scheduler { return rt.sched }

// TaskReport describes one executed task.
type TaskReport struct {
	Task    string
	Compute string
	Start   time.Duration
	Finish  time.Duration
	// Regions maps region label → physical device the RTS chose, the
	// observable outcome of declarative placement (Fig. 3).
	Regions map[string]string
	Logs    []string
}

// Report is the outcome of one job run.
type Report struct {
	Job       string
	Scheduler string
	Placer    string
	Makespan  time.Duration
	Tasks     map[string]*TaskReport
	// PeakDeviceBytes is the high-water allocation per device.
	PeakDeviceBytes map[string]int64
	// FinalOutputs maps sink task → device holding its retained output.
	FinalOutputs map[string]string
	// Attempts is the number of runs the job needed to complete (1 = no
	// retry; only a RecoveryPolicy makes it more).
	Attempts int
	// AttemptWaits records the virtual backoff each retry waited before
	// starting: AttemptWaits[i] is the delay applied ahead of attempt i+2.
	// Empty when the job completed on its first attempt.
	AttemptWaits []time.Duration
	// BatchSize and BatchIndex identify the serving batch this job executed
	// in: how many jobs its epoch packed and this job's position in
	// admission order. Both zero outside the serving path (Runtime.Run,
	// RunAll). Like every other report field they are a pure function of
	// the batch, identical at any worker-pool size.
	BatchSize  int
	BatchIndex int
	// SLODeadline, SLOWait, and SLOPredicted are the deadline this
	// submission was admitted against, the admission model's predicted
	// virtual queue wait, and the predicted virtual sojourn (wait +
	// makespan estimate). The achieved virtual sojourn is SLOWait +
	// Makespan — what SLO attainment is measured on. All zero without
	// ServerConfig.SLO.
	SLODeadline  time.Duration
	SLOWait      time.Duration
	SLOPredicted time.Duration
	// BestEffort marks a job the SLO policy down-tiered at admission: it
	// was predicted to miss its deadline and runs outside the SLO-attaining
	// population (SLOPolicy.DownTier).
	BestEffort bool
	// SkippedTasks counts tasks this run completed from checkpoint
	// snapshots without re-executing their bodies — the replay skip set of
	// a recovery retry. Zero on a first attempt and outside recovery. The
	// count is identical under full and partial replay: the modes differ
	// only in when the real restore I/O happens, never in what is skipped.
	SkippedTasks int
	// ReplayedTasks counts tasks the final (successful) retry actually
	// re-executed — everything not skipped. Zero when the job completed on
	// its first attempt. SkippedTasks + ReplayedTasks == len(Tasks) on a
	// recovered report.
	ReplayedTasks int
	// Shard labels the serving shard that executed this submission
	// (SubmitOptions.Shard); empty outside sharded serving. Deliberately
	// excluded from String() so sharded reports stay byte-identical to solo
	// runs.
	Shard string
}

// String renders the report as a fixed-width table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %q (%s scheduler, %s placer): makespan %v\n", r.Job, r.Scheduler, r.Placer, r.Makespan)
	ids := make([]string, 0, len(r.Tasks))
	for id := range r.Tasks {
		ids = append(ids, id)
	}
	// Stable order with an ID tie-break: map iteration seeds ids randomly,
	// so sorting on Start alone renders same-start tasks nondeterministically.
	sort.SliceStable(ids, func(a, b int) bool {
		ta, tb := r.Tasks[ids[a]], r.Tasks[ids[b]]
		if ta.Start != tb.Start {
			return ta.Start < tb.Start
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		t := r.Tasks[id]
		fmt.Fprintf(&b, "  %-22s on %-14s %12v → %12v\n", t.Task, t.Compute, t.Start, t.Finish)
		names := make([]string, 0, len(t.Regions))
		for n := range t.Regions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "      region %-18s → %s\n", n, t.Regions[n])
		}
		for _, l := range t.Logs {
			fmt.Fprintf(&b, "      log: %s\n", l)
		}
	}
	return b.String()
}

// globalEntry is a job-wide named region (Global State / Global Scratch).
type globalEntry struct {
	handle *region.Handle
	class  props.RegionClass
	shared map[string]*region.Handle // task id → that task's share
}

// jobState is what every attempt of a job runs over: the plan, the names, the
// recycled tables and the snapshot namespace. newRun builds it and retry hands
// it on whole, so a field added here is the next attempt's without being named
// there. Per-task state is indexed by rank (the task's position in g.Order),
// per-edge state by g's edge slots, per-device state by the device's index in
// cs.
type jobState struct {
	rt       *Runtime
	job      *dataflow.Job
	g        *dataflow.Graph      // the job's graph, resolved to ranks
	cs       *topology.ComputeSet // the devices schedule and cores index into
	schedule *sched.Schedule
	// epoch is the virtual-time view this run's accesses queue against.
	// Runs in different epochs are fully isolated; runs sharing one epoch
	// (RunAll, Server batches) contend on the same device queues.
	epoch *topology.Epoch
	// ns namespaces region owners. Defaults to the job name; the Server
	// makes it unique per submission so identical jobs can run in one
	// shared epoch without their owners colliding.
	ns string
	// owners holds every task's owner names in one string, g.Names(ns+"/",
	// inSuffix). A task owns its regions as its piece up to the suffix and its
	// share of a fanned-out input as the whole piece (owner, inOwner).
	owners string
	// sc is the job's recycled scratch: the dispatcher, and the backing of
	// handles and of a private cores. Nil once drive has given it back.
	sc *scratch
	// cores is the flat per-core availability table (cs.Cores windows it per
	// device).
	cores []time.Duration
	// handles is one block of three tables. [0, g.Edges()): a delivered output
	// awaiting its consumer, at the edge's slot. Then one slot per rank: a
	// sink's final output, retained until cleanup. Then one per edge again:
	// the storage tasks' input lists are carved from. A slot is written by the
	// producer before it retires and read by the consumer after, which the
	// pool lock orders; cleanup reads them all once the run has drained.
	handles []*region.Handle
	// ck is the submission's snapshot namespace, opened once when drive takes
	// the run on; nil unless recovery drives the run.
	ck *ckNamespace
	// partial selects lazy restore I/O on replay: a replayed task's output
	// payload is fetched from the store only when a re-executed consumer
	// receives it as input, instead of eagerly when the task is replayed.
	// Virtual time is identical either way (see restoreTaskAt).
	partial bool
	inject  *fault.Injector
}

// run is one attempt's execution state: the job's, and what the attempt has of
// its own — each table one block sized by the job.
type run struct {
	jobState
	// base is the earliest virtual time any task of this run may start —
	// recovery retries use it to model per-attempt backoff on the epoch
	// clock without perturbing batch mates.
	base time.Duration
	// idle marks cores as a private table no task has finished on yet: true of
	// a first attempt built without a shared table, never of a retry.
	idle bool
	// pool and w are the pool this run executes in and its dispatcher there,
	// from attach to detach; w is nil before and after. Guarded by pool.mu,
	// they are how a task's fence finds the dispatcher — or finds the run over.
	pool *wavePool
	w    *wavefront
	// smu guards the cross-task shared state (globals, the report's final
	// outputs) against concurrent wavefront task goroutines. It is a leaf
	// lock: nothing is called while holding it.
	smu     sync.Mutex
	globals map[string]*globalEntry // created by the first global
	report  *Report
	// ctxs and reports are the tasks' contexts and reports, by rank. Neither
	// is recycled with the scratch: a handle a body kept outlives the run
	// holding its task's context as its fence, and the report is the
	// submitter's.
	ctxs    []taskCtx
	reports []TaskReport
	// lazy holds, by producer rank, a replayed producer's re-materialized
	// output's restore state; allocated by newWavefront when a partial replay
	// restores anything. Written by the replayed producer, read by its
	// consumers (ordered like handles).
	lazy []*lazyRestore
}

// inputBuf returns rank k's empty input list, with room for every in-edge.
func (r *run) inputBuf(k int) []*region.Handle {
	at := r.g.Edges() + r.g.Len() + r.g.InSlot(k)
	return r.handles[at : at : at+len(r.g.Preds(k))]
}

// inSuffix ends the owner name under which a task holds its share of an input
// that was fanned out to several consumers.
const inSuffix = "/in"

// inOwner returns ns/ID/in for rank k, a piece of r.owners.
func (r *run) inOwner(k int) region.Owner {
	return region.Owner(r.g.Name(r.owners, k, len(r.ns)+len("/")+len(inSuffix)))
}

// owner returns ns/ID for rank k: the owner of everything the task allocates
// and of the inputs transferred to it.
func (r *run) owner(k int) region.Owner {
	in := r.inOwner(k)
	return in[:len(in)-len(inSuffix)]
}

// coresOf returns the core clocks of the device rank k is assigned to.
func (r *run) coresOf(k int) []time.Duration {
	return r.cs.Cores(r.cores, r.schedule.Tasks[k].Dev)
}

// Run executes the job to completion on the virtual clock and returns the
// report. On task failure every live region is released before returning
// (no leaks), and the error identifies the failing task.
//
// At most one RecoveryPolicy may be passed; with one the run is
// fault-tolerant, exactly as a job served by a Server built with that policy
// is: outputs are checkpointed, a failed attempt is retried with completed
// tasks restored, and Report.Attempts, AttemptWaits, SkippedTasks and
// ReplayedTasks say what it took.
//
// Run is a batch of one through the engine's drive loop (exec.go), in a fresh
// virtual-time epoch: device service queues start drained and never touch the
// shared topology, so concurrent Runs are isolated.
func (rt *Runtime) Run(job *dataflow.Job, policy ...RecoveryPolicy) (*Report, error) {
	var rec *recoveryState
	switch len(policy) {
	case 0:
	case 1:
		var err error
		if rec, err = resolveRecovery(&policy[0]); err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("core: at most one RecoveryPolicy per run")
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	schedule, err := rt.sched.Schedule(job, rt.topo)
	if err != nil {
		return nil, err
	}
	g, err := job.Graph()
	if err != nil {
		return nil, err
	}
	epoch := rt.topo.NewEpoch()
	return rt.driveOne(epoch, rec, rt.newRun(job, g, schedule, epoch, job.Name(), nil))
}

// newRun assembles per-job execution state for the job and its resolved
// graph, over a scratch from the free list. cores, a flat per-core table, may
// be shared between runs (RunAll); nil gets this run its own idle core
// availability. ns namespaces region owners (see run.ns).
func (rt *Runtime) newRun(job *dataflow.Job, g *dataflow.Graph, schedule *sched.Schedule, epoch *topology.Epoch, ns string, cores []time.Duration) *run {
	cs := rt.topo.ComputeSet()
	sc := rt.getScratch()
	idle := cores == nil
	if idle {
		sc.cores = sized(sc.cores, cs.NumCores())
		cores = sc.cores
	}
	sc.handles = sized(sc.handles, 2*g.Edges()+g.Len())
	return (&run{
		jobState: jobState{
			rt: rt, job: job, g: g, cs: cs, schedule: schedule,
			epoch: epoch, ns: ns, owners: g.Names(ns+"/", inSuffix),
			sc: sc, cores: cores, handles: sc.handles,
			inject: rt.inject,
		},
		idle: idle,
	}).attempt()
}

// attempt gives the run what each attempt has of its own — the task contexts
// and the reports, which whoever ran or submitted it may keep — and returns it.
func (r *run) attempt() *run {
	n := r.g.Len()
	r.ctxs, r.reports = make([]taskCtx, n), make([]TaskReport, n)
	r.report = &Report{
		Job: r.job.Name(), Scheduler: r.rt.sched.Name(), Placer: r.rt.placer.Name(),
		PeakDeviceBytes: make(map[string]int64),
		FinalOutputs:    make(map[string]string),
	}
	return r
}

// retry builds the run of the job's next attempt, which starts no earlier
// than wait after r did: over the same job state — plan, owner names, snapshot
// namespace and scratch, so it continues on r's core clocks as finalize
// rewound them, a retry being later on the job's own clock and not on a new
// one — with contexts and reports of its own. r has been finalized.
func (r *run) retry(wait time.Duration) *run {
	return (&run{jobState: r.jobState, base: r.base + wait}).attempt()
}

// execTaskAt runs the task of rank k at its scheduled placement, starting at
// the virtual time the dispatcher's core claim granted. It runs on a wavefront
// worker goroutine: all cross-task state it touches is either owned by this
// task (its context, its clock view, its slots of r.handles) or guarded
// (r.smu for globals, the pool lock inside fences). Launching a task allocates
// nothing: its context is a slot of the run's block and is itself the fence of
// the handles it touches, its owner name a piece of the run's one string, its
// input list a window of r.handles. It returns the
// task's virtual finish time and report — both non-nil even when a trailing
// release failed, matching the sequential engine's accounting — or a nil
// report on failure before completion.
func (r *run) execTaskAt(w *wavefront, k int, view *topology.TaskView, start time.Duration) (time.Duration, *TaskReport, error) {
	t, asg := r.g.Order[k], &r.schedule.Tasks[k]
	ctx := &r.ctxs[k]
	*ctx = taskCtx{
		run: r, task: t, compute: r.cs.Devices[asg.Dev],
		now:    start,
		owner:  r.owner(k),
		inputs: r.inputBuf(k),
		view:   view,
		rank:   k,
	}
	ctx.events = ctx.journal[:0]
	// Recovery fast path: a checkpointed task is restored, not re-run.
	if w.slots[k].restored {
		return r.restoreTaskAt(ctx, start)
	}
	// Collect inputs: transfer exclusive outputs from predecessors (the
	// Fig. 4 handover), adopt shared ones as-is. Handles are rebound to
	// this task's clock view and fence as they cross the task boundary.
	for i, p := range r.g.Preds(k) {
		h := r.takePending(k, i)
		if h == nil {
			continue
		}
		pid := r.g.Order[p].ID()
		if r.lazy != nil && r.lazy[p] != nil {
			// The producer was replayed from its checkpoint under partial
			// replay: its region carries a placeholder payload until a task
			// that actually re-executes receives it as input. Fetch the real
			// bytes now (wall-clock only — the restore's virtual price was
			// charged at the replayed producer, identically in both modes).
			if err := r.lazy[p].hydrate(r, pid, h); err != nil {
				ctx.inputs = append(ctx.inputs, h) // keep it releasable
				ctx.releaseAll()
				return 0, nil, fmt.Errorf("restoring input from %s: %w", pid, err)
			}
		}
		h.Rebind(view, k, ctx)
		if cls, err := h.Class(); err == nil && cls == props.Transfer {
			fromDev, _ := h.DeviceID()
			nh, done, err := h.Transfer(ctx.now, ctx.owner, asg.Compute)
			if err != nil {
				ctx.inputs = append(ctx.inputs, h) // keep it releasable
				ctx.releaseAll()
				return 0, nil, fmt.Errorf("input transfer from %s: %w", pid, err)
			}
			ctx.now = done
			h = nh
			if toDev, err := h.DeviceID(); err == nil && toDev != fromDev {
				ctx.noteMove(h)
			}
		}
		ctx.inputs = append(ctx.inputs, h)
	}

	// Fault injection happened eagerly at wavefront start (rank-ordered
	// verdicts, see newWavefront): a task that reaches this point passed.
	// Run the body; structural tasks (nil fn) still cost their declared
	// Ops and produce their declared output.
	if fn := t.Fn(); fn != nil {
		if err := fn(ctx); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}
	ctx.Charge(t.Props().Ops)
	if ctx.output == nil && t.Props().OutputBytes > 0 && len(r.g.Succs(k)) > 0 {
		if _, err := ctx.Output(t.Props().OutputBytes); err != nil {
			ctx.releaseAll()
			return 0, nil, fmt.Errorf("implicit output: %w", err)
		}
	}

	// Snapshot the output before it is handed over (fault tolerance).
	if r.ck != nil {
		if err := r.checkpointTask(ctx, t); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}

	// Hand the output over.
	if ctx.output != nil {
		if err := r.deliverOutput(ctx); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}
	// Scratch dies with the task; inputs were consumed.
	ctx.releaseScratchAndInputs()
	// Release this task's shares of globals (the job-level owner keeps
	// them alive until the job ends). One failed release must not leak
	// the remaining shares: release them all in deterministic order and
	// aggregate the errors.
	names := make([]string, 0, len(ctx.globalShares))
	for name := range ctx.globalShares {
		names = append(names, name)
	}
	sort.Strings(names)
	var relErrs []error
	for _, name := range names {
		h := ctx.globalShares[name]
		if err := h.Release(); err != nil {
			relErrs = append(relErrs, fmt.Errorf("releasing global %s: %w", name, err))
		} else {
			ctx.noteRelease(h)
		}
	}

	// The task did run to completion: its report and finish time are
	// recorded even when a share release failed, so downstream accounting
	// (makespan, spans, reports) stays consistent.
	if r.ck != nil && relErrs == nil {
		// Fully successful: mark the snapshot warm-replayable so a later
		// attempt can replay it at the deterministic recorded price (and,
		// under partial replay, without eager restore I/O). A release error
		// keeps the entry cold — the retry restores it eagerly, exactly as
		// it always has.
		r.ck.record(t.ID(), ctx.ckRestoreCost)
	}
	r.rt.tel.Record(telemetry.Span{
		Layer: telemetry.LayerRuntime, Job: r.job.Name(), Task: t.ID(),
		Name: "exec", Start: start, End: ctx.now,
	})
	return ctx.now, ctx.report(start), errors.Join(relErrs...)
}

// takePending removes and returns the output delivered along rank k's i'th
// in-edge, nil if nothing was.
func (r *run) takePending(k, i int) *region.Handle {
	at := r.g.InSlot(k) + i
	h := r.handles[at]
	r.handles[at] = nil
	return h
}

// deliverOutput routes a finished task's output region to its successors:
// one successor → exclusive pending transfer; several → shared grants
// (Global Scratch semantics); none → retained as the job's final output.
func (r *run) deliverOutput(ctx *taskCtx) error {
	k := ctx.rank
	succs, slots := r.g.Succs(k), r.g.OutSlots(k)
	switch len(succs) {
	case 0:
		dev, err := ctx.output.DeviceID()
		if err != nil {
			return err
		}
		r.smu.Lock()
		r.report.FinalOutputs[ctx.task.ID()] = dev
		r.smu.Unlock()
		r.handles[r.g.Edges()+k] = ctx.output // retain until cleanup
		ctx.output = nil
		return nil
	case 1:
		r.handles[slots[0]] = ctx.output
		ctx.output = nil
		return nil
	default:
		for i, s := range succs {
			sAsg := &r.schedule.Tasks[s]
			// All fan-out shares are granted here, at producer completion —
			// before any consumer can launch — so the region's sharer set is
			// closed by construction and ShareRanked's per-sharer fencing is
			// sound (see wavefront.fence).
			sh, err := ctx.output.ShareRanked(r.inOwner(int(s)), sAsg.Compute, int(s))
			if err != nil {
				return fmt.Errorf("sharing output with %s: %w", sAsg.Task, err)
			}
			ctx.noteShare(sh)
			r.handles[slots[i]] = sh
		}
		// The producer's own claim ends; the shares keep the region alive.
		out := ctx.output
		if err := out.Release(); err != nil {
			return err
		}
		ctx.noteRelease(out)
		ctx.output = nil
		return nil
	}
}

// cleanup releases everything the run still holds: job globals, retained
// final outputs, and any undelivered pending handles (failure paths).
func (r *run) cleanup() {
	r.smu.Lock()
	globals := r.globals
	r.globals = nil
	r.smu.Unlock()
	for _, g := range globals {
		g.handle.Release() //nolint:errcheck // best-effort teardown
	}
	held := r.handles[:r.g.Edges()+r.g.Len()]
	for i, h := range held {
		if h != nil {
			h.Release() //nolint:errcheck // best-effort teardown
			held[i] = nil
		}
	}
}
