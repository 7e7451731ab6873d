package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/allocator"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/region"
	"repro/internal/telemetry"
)

// This file implements runtime-level checkpoint/restart — the paper's
// challenge 8(3): "failures may lead to data loss and force applications to
// stop and restart. Therefore, our programming model and its runtime system
// must implement suitable mechanisms that guarantee fault tolerance."
//
// The mechanism follows the dataflow structure: a task's externally visible
// effect is its output region, so after each task completes the runtime
// snapshots that output into a fault-tolerant far-memory store
// (internal/fault — replication or Carbink-style erasure coding, the
// operator's choice). When a task fails, the drive loop's ladder (exec.go)
// re-runs the job: tasks with a snapshot are *restored* — their output is
// fetched from the store into a fresh region and handed to successors —
// instead of re-executed. The mechanism is the same for a solo Run with a
// RecoveryPolicy and for every job of a Server built with one.
//
// Scope: the snapshot covers dataflow state (task outputs). Side effects on
// job-global regions are transient by definition (Global Scratch) or
// synchronization state (Global State) that tasks must be able to rebuild —
// the same contract Spark-style lineage recovery imposes. A retry starts
// with no globals, so a task that created one is re-executed rather than
// restored (ckEntry.createdGlobal): the global exists again for the
// successors that read it.

// Checkpointer stores task output snapshots in a fault.Store, one namespace
// per submission. A run opens its namespace once and holds it, so a snapshot,
// a lookup or a restore takes that namespace's lock and no other run's, and
// forgetting a settled submission removes one map entry. Namespaces are keyed
// by a unique per-submission run ID (not the job name): identical jobs
// submitted concurrently never cross-restore or cross-Forget each other's
// snapshots, whatever characters their names hold. Store I/O happens outside
// every lock, so workers never serialize on far-memory transfers. The payload
// buffers a snapshot is staged in and a restore is read into come from one
// bounded free list (getBuf/putBuf): a checkpoint allocates nothing
// proportional to its payload once the list has filled from returned buffers.
type Checkpointer struct {
	store fault.Store
	seq   atomic.Uint64

	mu     sync.Mutex              // guards spaces; taken before a namespace's lock, never after
	spaces map[string]*ckNamespace // run ID → that submission's snapshots

	bufMu sync.Mutex
	bufs  allocator.BufList
}

// ckBufBytes bounds the payload buffers a Checkpointer keeps for reuse.
const ckBufBytes = 4 << 20

// ckNamespace is one submission's snapshots, by task ID. Every attempt of the
// submission — retries, and a failover resubmission on another shard's server
// (SubmitOptions.ResumeID) — opens the same one.
type ckNamespace struct {
	c  *Checkpointer
	id string

	mu      sync.Mutex
	entries map[string]ckEntry // nil once forgotten
}

type ckEntry struct {
	obj  fault.ObjectID
	size int64
	// hasOutput distinguishes a task that produced an output region
	// (possibly with an empty payload — successors still expect delivery)
	// from a sink that completed without one.
	hasOutput bool
	// createdGlobal marks the snapshot of a task that created a job global
	// (taskCtx.Global's first use). The snapshot holds the task's output, not
	// the global, so a retry re-executes such a task instead of restoring
	// it: a successor reading the global finds it republished.
	createdGlobal bool
	// restoreCost is the virtual price charged for replaying the snapshot —
	// its Put duration, the deterministic proxy for a restore Get in both
	// replay modes: the store's Get cost can depend on mutable cluster state
	// (degraded erasure reads), and partial replay must know the price
	// without performing the Get.
	restoreCost time.Duration
}

// NewCheckpointer wraps a fault-tolerant store.
func NewCheckpointer(store fault.Store) *Checkpointer {
	return &Checkpointer{
		store: store, spaces: make(map[string]*ckNamespace),
		bufs: allocator.BufList{Limit: ckBufBytes},
	}
}

// NewRunID mints a unique snapshot namespace ID for one submission of job. A
// run mints its own; a sharded router or a stream mints one per submission
// and threads it through SubmitOptions.ResumeID so every attempt of that
// submission — the original and any failover re-submissions — shares the
// namespace. Whoever minted it owns its lifecycle: call Forget once the
// submission is settled. The ID is job+"@"+N, built in one allocation.
func (c *Checkpointer) NewRunID(job string) string {
	var num [20]byte
	n := strconv.AppendUint(num[:0], c.seq.Add(1), 10)
	var b strings.Builder
	b.Grow(len(job) + 1 + len(n))
	b.WriteString(job)
	b.WriteByte('@')
	b.Write(n)
	return b.String()
}

// open returns the namespace of runID, creating it on first use.
func (c *Checkpointer) open(runID string) *ckNamespace {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.spaces[runID]
	if ns == nil {
		ns = &ckNamespace{c: c, id: runID, entries: make(map[string]ckEntry)}
		c.spaces[runID] = ns
	}
	return ns
}

// getBuf returns a payload buffer of length size from the free list. zero
// asks for all zeros; otherwise the caller overwrites every byte.
func (c *Checkpointer) getBuf(size int64, zero bool) []byte {
	c.bufMu.Lock()
	defer c.bufMu.Unlock()
	return c.bufs.Get(size, zero)
}

// putBuf hands a payload buffer back once nothing reads it any more.
func (c *Checkpointer) putBuf(buf []byte) {
	c.bufMu.Lock()
	c.bufs.Put(buf)
	c.bufMu.Unlock()
}

// lookup returns the entry for a task, if any.
func (ns *ckNamespace) lookup(task string) (ckEntry, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[task]
	return e, ok
}

// snapshot persists a completed task's output bytes. hasOutput marks
// whether the task produced an output region at all; data may be empty
// either way, and is the caller's again on return (fault.Store.Put copies).
// createdGlobal marks a task that created a job global. Returns the virtual
// time the store took, which the entry keeps as its replay price.
//
// The store round-trips run outside the namespace lock: N workers
// checkpointing concurrently contend on the store's own synchronization
// only, never on each other's bookkeeping.
func (ns *ckNamespace) snapshot(task string, data []byte, hasOutput, createdGlobal bool) (time.Duration, error) {
	store := ns.c.store
	e := ckEntry{hasOutput: hasOutput, createdGlobal: createdGlobal}
	var d time.Duration
	if hasOutput && len(data) > 0 {
		obj, dd, err := store.Put(data)
		if err != nil {
			return dd, fmt.Errorf("core: checkpoint %s/%s: %w", ns.id, task, err)
		}
		e.obj, e.size, e.restoreCost, d = obj, int64(len(data)), dd, dd
	}
	ns.mu.Lock()
	stale, had := e, true // forgotten meanwhile: nothing may outlive Forget
	if ns.entries != nil {
		stale, had = ns.entries[task]
		ns.entries[task] = e
	}
	ns.mu.Unlock()
	if had && stale.size > 0 {
		// Re-checkpoint (the run re-ran this task from scratch): drop the
		// stale object, again outside the lock.
		store.Delete(stale.obj) //nolint:errcheck // best-effort GC
	}
	return d, nil
}

// restore fetches a snapshot's bytes into a buffer from the checkpointer's
// free list: the caller hands data to putBuf when it has consumed it.
// hasOutput reports whether the task had produced an output region (so an
// empty payload still must be delivered to successors).
func (ns *ckNamespace) restore(task string) (data []byte, hasOutput bool, err error) {
	e, ok := ns.lookup(task)
	if !ok {
		return nil, false, fmt.Errorf("core: no checkpoint for %s/%s", ns.id, task)
	}
	if e.size == 0 {
		return nil, e.hasOutput, nil
	}
	buf := ns.c.getBuf(e.size, false)
	if data, _, err = ns.c.store.GetInto(e.obj, buf); err != nil {
		ns.c.putBuf(buf)
		return nil, true, fmt.Errorf("core: restoring %s/%s: %w", ns.id, task, err)
	}
	return data, true, nil
}

// drop removes a single task's snapshot. The wavefront executor uses it
// after a failure to trim snapshots that ranks *above* the failing task
// produced out of sequential order — a sequential run would never have
// executed them, so recovery must not replay them.
func (ns *ckNamespace) drop(task string) {
	ns.mu.Lock()
	e, ok := ns.entries[task]
	delete(ns.entries, task)
	ns.mu.Unlock()
	if ok && e.size > 0 {
		ns.c.store.Delete(e.obj) //nolint:errcheck // best-effort GC
	}
}

// Forget drops all snapshots of one submission (after it terminally
// succeeded or failed): its namespace leaves the map, whatever the other
// submissions in flight hold, and the store deletes run outside both locks,
// so a slow store never blocks other runs' snapshot/restore traffic.
// Forgetting an ID nothing is stored under is a no-op.
func (c *Checkpointer) Forget(runID string) {
	c.mu.Lock()
	ns := c.spaces[runID]
	delete(c.spaces, runID)
	c.mu.Unlock()
	if ns == nil {
		return
	}
	ns.mu.Lock()
	entries := ns.entries
	ns.entries = nil
	ns.mu.Unlock()
	for _, e := range entries {
		if e.size > 0 {
			c.store.Delete(e.obj) //nolint:errcheck // best-effort GC
		}
	}
}

// Snapshots returns the number of stored entries (tests, reports).
func (c *Checkpointer) Snapshots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ns := range c.spaces {
		ns.mu.Lock()
		n += len(ns.entries)
		ns.mu.Unlock()
	}
	return n
}

// RecoveryPolicy makes execution fault-tolerant: Runtime.Run takes one
// for a single job, ServerConfig.Recovery one for every admitted job. Task
// outputs are checkpointed, and a failed job is retried in place —
// checkpointed tasks restored instead of re-executed, on the core clocks the
// failed attempt left — up to MaxAttempts.
type RecoveryPolicy struct {
	// Checkpointer says where snapshots go: NewCheckpointer over the
	// operator's fault-tolerant store (fault.NewReplicatedStore,
	// fault.NewErasureStore), shared by all workers. Sharing one across
	// servers is how a sharded deployment lets a job resubmitted on a
	// survivor (SubmitOptions.ResumeID) restore what a dead shard
	// checkpointed. Nil builds a default 2-way replicated store over a
	// private 3-node fabric.
	Checkpointer *Checkpointer
	// MaxAttempts caps total runs per submission, first included
	// (default 3).
	MaxAttempts int
	// PartialReplay restores lazily: on a retry, completed tasks are still
	// completed from their snapshots without re-execution, but a task's
	// output is fetched from the store only when a re-executed successor
	// actually receives it. Interior outputs of the skipped prefix — those no
	// re-executed task reads — are never fetched at all, which is where wide
	// or deep DAGs save retry latency. Virtual-time accounting is identical
	// to full replay: retried reports are byte-for-byte the same either way,
	// only the real restore I/O is elided.
	PartialReplay bool
}

// recoveryState is a resolved RecoveryPolicy: what drive's ladder reads.
type recoveryState struct {
	ck          *Checkpointer
	maxAttempts int
	partial     bool
}

// resolveRecovery fills a policy's defaults; a nil policy is no recovery.
func resolveRecovery(pol *RecoveryPolicy) (*recoveryState, error) {
	if pol == nil {
		return nil, nil
	}
	ck := pol.Checkpointer
	if ck == nil {
		store, err := fault.NewDefaultStore()
		if err != nil {
			return nil, err
		}
		ck = NewCheckpointer(store)
	}
	rec := &recoveryState{ck: ck, maxAttempts: pol.MaxAttempts, partial: pol.PartialReplay}
	if rec.maxAttempts <= 0 {
		rec.maxAttempts = 3
	}
	return rec, nil
}

// forget drops a settled submission's snapshots, so the checkpointer drains
// back to zero entries. No-op without recovery.
func (rec *recoveryState) forget(ns *ckNamespace) {
	if rec != nil && ns != nil {
		rec.ck.Forget(ns.id)
	}
}

// checkpointTask snapshots a completed task's output (if any) into the
// checkpointer's store, charging the store's virtual time to the task. The
// output is staged through a recycled buffer that goes back when the store
// has copied it.
func (r *run) checkpointTask(ctx *taskCtx, t *dataflow.Task) error {
	var data []byte
	hasOutput := ctx.output != nil
	if hasOutput {
		size, err := ctx.output.Size()
		if err != nil {
			return err
		}
		data = r.ck.c.getBuf(size, false)
		defer r.ck.c.putBuf(data)
		f := ctx.output.ReadAsync(ctx.now, 0, data)
		now, err := f.Await(ctx.now)
		if err != nil {
			return err
		}
		ctx.now = now
	}
	d, err := r.ck.snapshot(t.ID(), data, hasOutput, r.createdGlobal(ctx.rank))
	if err != nil {
		return err
	}
	ctx.now += d
	r.rt.tel.Add(telemetry.LayerFault, "checkpoints", 1)
	return nil
}

// lazyRestore tracks one replayed producer's re-materialized output region
// under partial replay: the region holds a placeholder payload until a
// re-executed consumer receives it as input and hydrates the real bytes.
// The mutex serializes concurrent consumers of a shared output — only the
// wall-clock fetch is serialized, never virtual time. A run's are one block
// of the job's scratch, by producer rank, zeroed for each attempt.
type lazyRestore struct {
	mu sync.Mutex
	// pending marks a producer the attempt replayed with a placeholder
	// payload: written by the producer before it delivers, read by its
	// consumers after (ordered like run.handles).
	pending bool
	done    bool
}

// hydrate fetches the replayed producer's payload from the checkpoint store
// (once) and writes it raw into the re-materialized region. The restore's
// virtual price was already charged when the producer replayed; this is
// pure real I/O, counted in the fault layer's restored_bytes gauge — the
// quantity partial replay exists to shrink.
func (lr *lazyRestore) hydrate(r *run, task string, h *region.Handle) error {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.done {
		return nil
	}
	data, _, err := r.ck.restore(task)
	if err != nil {
		return err
	}
	defer r.ck.c.putBuf(data)
	if len(data) > 0 {
		if err := h.Hydrate(0, data); err != nil {
			return err
		}
	}
	lr.done = true
	r.rt.tel.Add(telemetry.LayerFault, "lazy_hydrations", 1)
	r.rt.tel.Add(telemetry.LayerFault, "restored_bytes", int64(len(data)))
	return nil
}

// restoreTaskAt replays a checkpointed task on a wavefront worker: inputs
// are discarded (their producer's effect is already captured downstream),
// the stored output is re-materialized into a fresh region, and delivery
// proceeds as usual — even for an empty payload, so successors that
// legitimately expect the region are never starved. The dispatcher folds
// the returned finish time and report into the run, like any executed task.
//
// Replay charges one store round trip of virtual time, priced at the
// snapshot's Put, and partial replay elides the real store fetch entirely: a
// placeholder payload of the snapshot's exact size backs the region until a
// re-executed consumer hydrates it (run.lazy) — so outputs no re-executed
// task ever reads are never fetched at all. The virtual timeline, and with
// it the final report, is byte-identical between the modes; only the real
// store traffic differs.
func (r *run) restoreTaskAt(ctx *taskCtx, start time.Duration) (time.Duration, *TaskReport, error) {
	t := ctx.task
	for i := range r.g.Preds(ctx.rank) {
		if h := r.takePending(ctx.rank, i); h != nil {
			if h.Release() == nil { //nolint:errcheck // discarding a superseded input
				ctx.noteRelease(h)
			}
		}
	}
	// Adopt inputs list as empty: the restored task does not run.
	e, ok := r.ck.lookup(t.ID())
	if !ok {
		return 0, nil, fmt.Errorf("core: no checkpoint for %s/%s", r.ck.id, t.ID())
	}
	lazy := r.partial
	var data []byte
	if !lazy {
		var err error
		if data, _, err = r.ck.restore(t.ID()); err != nil {
			return 0, nil, err
		}
		defer r.ck.c.putBuf(data)
		r.rt.tel.Add(telemetry.LayerFault, "restored_bytes", int64(len(data)))
	}
	ctx.now += e.restoreCost
	if e.hasOutput {
		size := e.size
		if size == 0 {
			// Regions have a one-byte floor; deliver the smallest region
			// with an empty payload rather than starving successors.
			size = 1
		}
		out, err := ctx.Output(size)
		if err != nil {
			return 0, nil, err
		}
		if e.size > 0 {
			payload := data
			if lazy {
				// Placeholder of the snapshot's exact size: the write below
				// prices identically to the eager path, and the real bytes
				// arrive through lazyRestore.hydrate if ever needed. Zeroed: a
				// region nobody hydrates must not show another job's bytes.
				payload = r.ck.c.getBuf(e.size, true)
				defer r.ck.c.putBuf(payload)
			}
			f := out.WriteAsync(ctx.now, 0, payload)
			now, err := f.Await(ctx.now)
			if err != nil {
				ctx.releaseAll()
				return 0, nil, err
			}
			ctx.now = now
			if lazy {
				r.lazy[ctx.rank].pending = true
			}
		}
		if err := r.deliverOutput(ctx); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}
	ctx.logText = append(ctx.logText, "restored from checkpoint"...) // not Log: no format to run
	ctx.logEnds = append(ctx.logEnds, len(ctx.logText))
	r.rt.tel.Add(telemetry.LayerFault, "restores", 1)
	ctx.span = telemetry.Span{
		Layer: telemetry.LayerFault, Job: r.job.Name(), Task: t.ID(),
		Name: "restore", Start: start, End: ctx.now,
	}
	return ctx.now, ctx.report(start), nil
}
