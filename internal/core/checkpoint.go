package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/allocator"
	"repro/internal/cluster"
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
// the same contract Spark-style lineage recovery imposes.

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
	// recorded marks the snapshot of a task that fully completed, making
	// it warm-replayable: restoreCost below is valid, and partial replay
	// may defer the real store fetch until a re-executed consumer needs
	// the payload. A snapshot without a record (the task failed between
	// checkpoint and completion, or the entry was seeded outside the
	// engine) replays cold — the store round trip is performed, and its
	// observed price charged, eagerly in both modes.
	recorded bool
	// restoreCost is the virtual price charged for replaying a recorded
	// snapshot — the snapshot Put duration, used as the deterministic
	// proxy for a restore Get in both replay modes: the store's Get cost
	// can depend on mutable cluster state (degraded erasure reads), and
	// partial replay must know the price without performing the Get.
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
// submission is settled.
func (c *Checkpointer) NewRunID(job string) string {
	return fmt.Sprintf("%s@%d", job, c.seq.Add(1))
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
// Returns the virtual time the store took.
//
// The store round-trips run outside the namespace lock: N workers
// checkpointing concurrently contend on the store's own synchronization
// only, never on each other's bookkeeping.
func (ns *ckNamespace) snapshot(task string, data []byte, hasOutput bool) (time.Duration, error) {
	store := ns.c.store
	e := ckEntry{hasOutput: hasOutput}
	var d time.Duration
	if hasOutput && len(data) > 0 {
		obj, dd, err := store.Put(data)
		if err != nil {
			return dd, fmt.Errorf("core: checkpoint %s/%s: %w", ns.id, task, err)
		}
		e.obj, e.size, d = obj, int64(len(data)), dd
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

// record marks an existing snapshot entry warm-replayable, attaching its
// deterministic restore price. It is called once per task, at the very end
// of the success path, so a task that failed after its snapshot keeps a
// record-less entry and replays through the cold path. A re-snapshot
// (snapshot called again for the same task) resets the entry cold until
// the re-run completes and records again.
func (ns *ckNamespace) record(task string, restoreCost time.Duration) {
	ns.mu.Lock()
	if e, ok := ns.entries[task]; ok {
		e.recorded, e.restoreCost = true, restoreCost
		ns.entries[task] = e
	}
	ns.mu.Unlock()
}

// restore fetches a snapshot's bytes into a buffer from the checkpointer's
// free list: the caller hands data to putBuf when it has consumed it.
// hasOutput reports whether the task had produced an output region (so an
// empty payload still must be delivered to successors).
func (ns *ckNamespace) restore(task string) (data []byte, hasOutput bool, d time.Duration, err error) {
	e, ok := ns.lookup(task)
	if !ok {
		return nil, false, 0, fmt.Errorf("core: no checkpoint for %s/%s", ns.id, task)
	}
	if e.size == 0 {
		return nil, e.hasOutput, 0, nil
	}
	buf := ns.c.getBuf(e.size, false)
	data, d, err = ns.c.store.GetInto(e.obj, buf)
	if err != nil {
		ns.c.putBuf(buf)
		return nil, true, d, fmt.Errorf("core: restoring %s/%s: %w", ns.id, task, err)
	}
	return data, true, d, nil
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

// defaultFaultStore builds the serving default: a 2-way replicated
// far-memory store over a private 3-node fabric.
func defaultFaultStore() (fault.Store, error) {
	f := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 3; i++ {
		if err := f.AddNode(fmt.Sprintf("ckmem%d", i), 1<<28); err != nil {
			return nil, err
		}
	}
	return fault.NewReplicatedStore(f, 2)
}

// RecoveryPolicy makes execution fault-tolerant: Runtime.Run takes one
// for a single job, ServerConfig.Recovery one for every admitted job. Task
// outputs are checkpointed into the policy's store, and a failed job is
// retried in place — checkpointed tasks restored instead of re-executed, on
// the job's own virtual clock — up to MaxAttempts.
type RecoveryPolicy struct {
	// Store is the fault-tolerant far-memory store holding checkpoints,
	// shared by all workers — the operator's redundancy choice
	// (fault.NewReplicatedStore, fault.NewErasureStore). Nil builds a
	// default 2-way replicated store over a private 3-node fabric.
	Store fault.Store
	// Checkpointer, when set, is used directly instead of wrapping Store —
	// the way a sharded deployment shares one snapshot namespace across
	// every shard's server, so a job resubmitted on a survivor
	// (SubmitOptions.ResumeID) can restore what a dead shard checkpointed.
	Checkpointer *Checkpointer
	// MaxAttempts caps total runs per submission, first included
	// (default 3).
	MaxAttempts int
	// Backoff is the base per-retry delay in virtual time. Retries back off
	// exponentially: the wait before attempt n+1 is Backoff·2^(n-1), capped
	// at 8×Backoff. Batch mates are unaffected; the waits a submission
	// accumulated are reported in Report.AttemptWaits.
	Backoff time.Duration
	// PartialReplay restores lazily: on a retry, completed tasks are still
	// completed from their replay records without re-execution, but a task's
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
	backoff     time.Duration
	partial     bool
}

// resolveRecovery fills a policy's defaults; a nil policy is no recovery.
func resolveRecovery(pol *RecoveryPolicy) (*recoveryState, error) {
	if pol == nil {
		return nil, nil
	}
	ck := pol.Checkpointer
	if ck == nil {
		store := pol.Store
		if store == nil {
			var err error
			if store, err = defaultFaultStore(); err != nil {
				return nil, err
			}
		}
		ck = NewCheckpointer(store)
	}
	rec := &recoveryState{
		ck: ck, maxAttempts: pol.MaxAttempts,
		backoff: pol.Backoff, partial: pol.PartialReplay,
	}
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
// Put price is stashed on the context: when the task fully completes it
// becomes the entry's deterministic replay price (record). The output is
// staged through a recycled buffer that goes back when the store has copied it.
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
	d, err := r.ck.snapshot(t.ID(), data, hasOutput)
	if err != nil {
		return err
	}
	ctx.now += d
	ctx.ckRestoreCost = d
	r.rt.tel.Add(telemetry.LayerFault, "checkpoints", 1)
	return nil
}

// lazyRestore tracks one replayed producer's re-materialized output region
// under partial replay: the region holds a placeholder payload until a
// re-executed consumer receives it as input and hydrates the real bytes.
// The mutex serializes concurrent consumers of a shared output — only the
// wall-clock fetch is serialized, never virtual time.
type lazyRestore struct {
	mu   sync.Mutex
	size int64
	done bool
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
	data, _, _, err := r.ck.restore(task)
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
// Replay charges one store round trip of virtual time. For a recorded
// (warm) snapshot the price is the deterministic recorded Put cost, and
// partial replay elides the real store fetch entirely: a placeholder
// payload of the snapshot's exact size backs the region until a
// re-executed consumer hydrates it (run.lazy) — so outputs no re-executed
// task ever reads are never fetched at all. The virtual timeline, and with
// it the final report, is byte-identical between the modes; only the real
// store traffic differs. A record-less (cold) snapshot — the task failed
// after its checkpoint, or the entry was seeded outside the engine —
// fetches eagerly in both modes and charges the observed Get price.
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
	lazy := r.partial && e.recorded
	var data []byte
	hasOutput := e.hasOutput
	if lazy {
		ctx.now += e.restoreCost
	} else {
		var d time.Duration
		var err error
		data, hasOutput, d, err = r.ck.restore(t.ID())
		if err != nil {
			return 0, nil, err
		}
		defer r.ck.c.putBuf(data)
		if e.recorded {
			// Charge the deterministic price partial replay would charge,
			// not the observed Get — keeping the two modes' virtual
			// timelines identical.
			d = e.restoreCost
		}
		ctx.now += d
		r.rt.tel.Add(telemetry.LayerFault, "restored_bytes", int64(len(data)))
	}
	if hasOutput {
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
				r.lazy[ctx.rank] = &lazyRestore{size: e.size}
			}
		}
		if err := r.deliverOutput(ctx); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}
	ctx.Log("restored from checkpoint")
	r.rt.tel.Add(telemetry.LayerFault, "restores", 1)
	r.rt.tel.Record(telemetry.Span{
		Layer: telemetry.LayerFault, Job: r.job.Name(), Task: t.ID(),
		Name: "restore", Start: start, End: ctx.now,
	})
	return ctx.now, ctx.report(start), nil
}
