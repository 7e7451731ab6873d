package core

// This file implements the dependency-driven wavefront executor that
// replaced the sequential task loop. A per-run dispatcher tracks each
// task's unmet predecessor count and launches every ready task on a bounded
// worker pool (Config.Workers goroutines), so independent DAG branches
// execute their *real* work — region transfers, memsim copies, checkpoint
// store I/O, task Fn bodies — concurrently, while *virtual* time stays
// byte-for-byte deterministic.
//
// Determinism rests on four mechanisms:
//
//  1. Causal clock views (topology.TaskView). Each task prices its memory
//     accesses against a private queue view seeded from the element-wise
//     max of its predecessors' final views, so it queues behind exactly the
//     accesses that happened-before it in the DAG — never behind a sibling
//     branch that merely ran earlier in wall-clock time.
//
//  2. A rank-ordered core-claim ledger. The task's rank (its topological
//     index, dataflow.Graph) is the global tie-breaker: per compute device,
//     tasks claim virtual cores strictly in rank order, and a claim is only
//     granted when the chosen core's availability cannot be altered by any
//     lower-rank task still in flight on that device (the free core's clock
//     must not exceed the earliest in-flight claim's start). This makes the
//     multiset of core clocks — and therefore every task's start time —
//     identical to sequential execution.
//
//  3. Rank-order fences for globally ordered side effects. Operations whose
//     cost or outcome depends on shared mutable state (the coherence
//     directory on ever-shared regions, first-use creation of job globals)
//     wait until every lower-rank task has completed. Under Workers=1 the
//     fence is always trivially open; under parallel dispatch it only
//     blocks wall-clock time, never virtual time. A fenced task releases
//     its worker slot while it waits so the pool cannot starve.
//
//  4. Min-rank first-error-wins failure. When tasks fail, the failure that
//     sequential execution would have hit first — the lowest rank — is the
//     one surfaced; everything below it runs to completion (and keeps its
//     checkpoints), in-flight work above it is drained, snapshots that
//     ranks above the failure produced out of order are dropped, and the
//     run's core clocks are rewound to the deterministic post-failure state
//     so recovery replays exactly what a sequential run would have.
//
// A wavefront executes inside a wavePool, and drive (exec.go) is the one
// function that builds pools and attaches members to them. Runtime.Run and
// RunAll drive a pool with a single member; a Server batch attaches every
// batch member (and every recovery retry) to one shared pool, so many jobs'
// ready tasks compete for the same bounded worker slots concurrently.
// Determinism generalizes from one job to N because everything virtual is
// per member — seed views, core clocks, claim ledgers, fences, failure
// frontiers — and the only shared state, the pool's wall-clock worker
// slots, never feeds back into virtual time. Cross-member dispatch order is
// itself deterministic: the pool launches the lowest (rank, submission
// sequence) claimed task (sched.BatchBefore).
//
// Peak device memory is likewise virtualized: tasks journal alloc / share /
// release / migrate events stamped with (virtual time, rank, sequence), and
// the high-water mark per device is computed by a deterministic sweep over
// the sorted journal instead of sampling wall-clock allocator state.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/allocator"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/topology"
)

// errWavefrontAborted marks a task abandoned at a fence because a
// lower-rank task already failed: its own outcome is unobservable in
// sequential order, so the error is never surfaced.
var errWavefrontAborted = errors.New("core: wavefront aborted after earlier failure")

// taskState is one task's position in the wavefront lifecycle.
type taskState int8

const (
	tsWaiting taskState = iota // predecessors unmet
	tsReady                    // dispatchable, no core claimed yet
	tsClaimed                  // virtual core claimed, awaiting a worker slot
	tsRunning                  // executing on a worker goroutine
	tsDone                     // completed (or restored) successfully
	tsFailed                   // body / verdict / release failure
	tsSkipped                  // never dispatched (beyond the failure rank)
)

// evKind tags a virtual memory-ledger event.
type evKind int8

const (
	evAlloc   evKind = iota // region created: +1 ref, +block bytes on dev
	evShare                 // additional owner granted: +1 ref
	evRelease               // owner released: -1 ref; last ref frees bytes
	evMove                  // region migrated to dev
)

// memEvent is one entry in the run's virtual memory ledger. The (at, rank,
// seq) triple totally orders events deterministically: virtual time first,
// task rank for cross-task ties, per-task sequence within a task.
type memEvent struct {
	at    time.Duration
	rank  int
	seq   int
	id    region.ID
	kind  evKind
	dev   string // evAlloc / evMove: the region's (new) home device
	bytes int64  // evAlloc: allocator block size
}

// wavePool arbitrates one bounded worker pool across one or more
// concurrently executing wavefronts — one member per submission of a Server
// batch, exactly one for Runtime.Run and RunAll. Members
// share the pool's lock, condition variable, and worker slots; everything
// virtual (core clocks, claim ledgers, seed views, fences, failure
// frontiers) stays per member, which is what keeps each job's virtual time
// independent of its batch mates. The pool always launches the claimed task
// with the lowest (rank, member sequence) pair — sched.BatchBefore — so
// cross-member dispatch ties resolve by submission order, never by
// wall-clock races; the tiebreak shapes only wall-clock interleaving, since
// each member's virtual time is fixed by its own claim ledger.
type wavePool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// slots counts free worker slots. It transiently dips below zero when a
	// fenced task resumes before a launch completes, matching the bounded
	// overshoot the single-job dispatcher always had.
	slots int
	// members holds the wavefronts with work left, in no order that matters:
	// one leaves (detach) when it has drained, so next scans only what can
	// still dispatch and never reads a dispatcher that was recycled since. seq
	// counts the attaches, which is what numbers them.
	members []*wavefront
	seq     int
}

// newWavePool builds a pool with the given worker bound (minimum 1).
func newWavePool(workers int) *wavePool {
	if workers <= 0 {
		workers = 1
	}
	p := &wavePool{slots: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// attach registers a member, assigning its submission sequence — a retry's
// is later than everything attached before it — and makes it its run's
// dispatcher. Callers either hold p.mu or are the only goroutine aware of the
// pool yet.
func (p *wavePool) attach(w *wavefront) {
	w.pool, w.seq = p, p.seq
	p.seq++
	p.members = append(p.members, w)
	w.r.pool, w.r.w = p, w
}

// detach takes a drained member out of the pool and away from its run, whose
// fences find it over from here on: nothing reaches w through the pool or the
// run anymore, so once finalized it can serve another job. Caller holds p.mu.
func (p *wavePool) detach(w *wavefront) {
	i := slices.Index(p.members, w)
	last := len(p.members) - 1
	p.members[i], p.members[last] = p.members[last], nil
	p.members = p.members[:last]
	w.r.w = nil
}

// next takes the pool's next dispatchable task — the lowest (rank, member
// sequence) claim across all members — and a worker slot for it; ok is false
// when no slot is free or nothing is dispatchable. The caller must run the
// task (runTask) or hand it to a goroutine that does. Caller holds p.mu.
func (p *wavePool) next() (w *wavefront, k int, ok bool) {
	if p.slots <= 0 {
		return nil, 0, false
	}
	for _, m := range p.members {
		if m.canceled != nil || len(m.dispatch) == 0 {
			continue
		}
		if w == nil || sched.BatchBefore(m.dispatch[0], m.seq, w.dispatch[0], w.seq) {
			w = m
		}
	}
	if w == nil {
		return nil, 0, false
	}
	k = w.dispatch[0]
	w.dispatch = w.dispatch[1:]
	w.slots[k].state = tsRunning
	w.inflight++
	p.slots--
	return w, k, true
}

// launch starts a task goroutine for every free worker slot that has a
// dispatchable task. Caller holds p.mu.
func (p *wavePool) launch() {
	for {
		w, k, ok := p.next()
		if !ok {
			return
		}
		go w.runTask(k)
	}
}

// slot is one task's dispatcher state; a wavefront holds one per rank.
type slot struct {
	state      taskState
	restored   bool  // checkpointed in a prior attempt: restore, don't run
	reported   bool  // produced a task report (ran or restored to completion)
	unmet      int32 // remaining predecessor count
	claimCore  int32
	claimStart time.Duration
	finish     time.Duration
	view       *topology.TaskView // final clock view, once done
}

// wavefront is one run's dispatcher state — one member of a wavePool. All of
// it is indexed by task rank (the run's graph) or by compute-device index
// (the run's compute set); nothing here is looked up by ID. It lives in the
// job's scratch: newWavefront fills it anew for every attempt, over the tables
// the last one left.
type wavefront struct {
	r    *run
	pool *wavePool
	seq  int             // submission sequence within the pool (dispatch tiebreak)
	ctx  context.Context // the submitter's, probed for cancellation (Server); nil never cancels

	// seed is the epoch snapshot every task of this run prices against
	// (merged with predecessor views). Snapshotting once — instead of
	// reading the epoch per task — is what keeps batch members
	// deterministic: a mate that finishes mid-flight absorbs its views into
	// the shared epoch, and a live read would leak that wall-clock-dependent
	// backlog into this job's virtual time.
	seed *topology.TaskView
	// baseCores snapshots the run's core clocks at wavefront construction,
	// so a failure can rewind them to the deterministic sequential state.
	// Not taken when the run started on private idle clocks: the snapshot is
	// zeros.
	baseCores []time.Duration

	slots []slot
	// ready and readyAt are the claim ledgers' grant mask (rank is tsReady)
	// and start floor (max predecessor finish, virtual); plain slices because
	// sched.ClaimLedger.GrantBatch reads them.
	ready   []bool
	readyAt []time.Duration
	devs    []sched.ClaimLedger // by compute-device index
	// dispatch holds the claimed ranks awaiting a worker slot, ascending. It is
	// a window of queue, whole: a rank enters once and leaves from the front, so
	// one array of a slot per rank holds a run.
	dispatch, queue []int

	inflight int // goroutines launched and not yet returned
	frontier int // lowest rank not yet done
	done     int
	failRank int // lowest failed rank, -1 if none
	failErr  error
	failTask string
	canceled error
}

// newWavefront validates the run's plan and fills the scratch's dispatcher
// for it: per-device claim queues, predecessor counts, the causal seed view,
// the core-clock snapshot failure rewinds restore, and the eager rank-ordered
// injection / restore pre-pass. The returned wavefront is not yet attached
// to a pool. On a validation error the failing task's ID is returned and
// the caller owns run cleanup.
func (r *run) newWavefront(ctx context.Context, seed *topology.TaskView) (*wavefront, string, error) {
	order, plan := r.g.Order, r.schedule.Tasks
	// Validate the plan up front so scheduling gaps surface as task errors
	// rather than mid-flight panics.
	for k, t := range order {
		if k >= len(plan) || plan[k].Task != t.ID() {
			return nil, t.ID(), errors.New("core: task missing from schedule")
		}
		if d := plan[k].Dev; d < 0 || d >= len(r.cs.Devices) || r.cs.Devices[d].ID != plan[k].Compute {
			return nil, t.ID(), fmt.Errorf("core: scheduled on unknown device %s", plan[k].Compute)
		}
	}
	n := len(order)
	w := &r.sc.w
	devs := w.devs
	if len(devs) != len(r.cs.Devices) {
		devs = make([]sched.ClaimLedger, len(r.cs.Devices))
	}
	*w = wavefront{
		r: r, ctx: ctx, seed: seed,
		slots: sized(w.slots, n), ready: sized(w.ready, n), readyAt: sized(w.readyAt, n),
		devs: devs, queue: sized(w.queue, n), baseCores: w.baseCores[:0],
		failRank: -1,
	}
	w.dispatch = w.queue[:0]
	for d := range w.devs {
		w.devs[d].Reset()
	}
	if !r.idle {
		w.baseCores = append(w.baseCores, r.cores...)
	}
	for k := range order {
		w.devs[plan[k].Dev].Enqueue(k) // ascending: k iterates in rank order
		sl := &w.slots[k]
		sl.unmet = int32(len(r.g.Preds(k)))
		if sl.unmet == 0 {
			sl.state = tsReady
			w.ready[k] = true
		}
	}

	// Injection verdicts and restore decisions are taken eagerly in strict
	// rank order, exactly as the sequential loop would consume them: tasks
	// checkpointed by a prior attempt never step the injector, and stepping
	// stops at the first failure (ranks above it never consume injector
	// state). Injector passes are mutation-free, so pre-consuming them is
	// observationally identical to consuming them at dispatch time.
	for k, t := range order {
		if r.ck != nil {
			if _, ok := r.ck.lookup(t.ID()); ok {
				w.slots[k].restored = true
				if r.partial && r.lazy == nil {
					r.lazy = make([]*lazyRestore, n)
				}
				continue
			}
		}
		if r.inject != nil {
			if err := r.inject.Step(r.ns, t.ID()); err != nil {
				w.failRank, w.failErr, w.failTask = k, err, t.ID()
				w.slots[k].state = tsFailed
				w.ready[k] = false
				break
			}
		}
	}
	return w, "", nil
}

// finalize settles a drained wavefront: releases the run's regions and, on
// success, folds its clock views into the epoch and finalizes the report's
// peak-memory and makespan figures. On failure it additionally drops
// snapshots that ranks above the failure produced out of sequential order,
// and rewinds the run's core clocks to the deterministic post-failure
// state: the construction-time snapshot replayed with exactly the
// completions a sequential run would have made (reported ranks at or below
// the failure). Without the rewind, in-flight tasks above the failure rank
// — which only exist at Workers>1 — would leave their finish times on the
// clocks and make every retry's virtual time depend on the pool size.
//
// Must be called exactly once, after drainedLocked() was observed under the
// pool lock; at that point no task goroutine of this member is live, so its
// state is safe to read unlocked.
func (w *wavefront) finalize() (failedTask string, err error) {
	r := w.r
	if w.canceled != nil {
		r.cleanup()
		w.recycleViews()
		return "", w.canceled
	}
	if w.failRank >= 0 {
		if r.ck != nil {
			for k := w.failRank + 1; k < len(w.slots); k++ {
				if sl := &w.slots[k]; sl.state == tsDone && !sl.restored {
					r.ck.drop(r.g.Order[k].ID())
				}
			}
		}
		if r.idle {
			clear(r.cores)
		} else {
			copy(r.cores, w.baseCores)
		}
		for k := 0; k <= w.failRank && k < len(w.slots); k++ {
			if sl := &w.slots[k]; sl.reported {
				r.coresOf(k)[sl.claimCore] = sl.finish
			}
		}
		r.cleanup()
		w.recycleViews()
		return w.failTask, w.failErr
	}

	// Success: fold every task's clock view back into the epoch, so a job
	// driven over the same epoch afterwards queues behind this one's device
	// backlog (RunAll; the members of one drive call seeded before anyone
	// absorbed, so among them this is inert bookkeeping). The views are
	// merged into the seed first — the epoch already dominates it, and it is
	// about to be recycled — so the epoch is locked once.
	for k := range w.slots {
		if v := w.slots[k].view; v != nil {
			w.seed.Merge(v)
		}
	}
	r.epoch.Absorb(w.seed)
	r.cleanup()
	w.recycleViews()
	r.computePeak()
	// Every task reported: hand the submitter the reports under their names.
	r.report.Tasks = make(map[string]*TaskReport, len(w.slots))
	for k := range w.slots {
		tr := &r.reports[k]
		r.report.Tasks[tr.Task] = tr
		if tr.Finish > r.report.Makespan {
			r.report.Makespan = tr.Finish
		}
		if w.slots[k].restored {
			r.report.SkippedTasks++
		}
	}
	return "", nil
}

// recycleViews returns the run's task views and seed snapshot to the pool.
// Safe only after cleanup: every region the run held has been released, so
// stale handles fail validation before their clock view — possibly one of
// these, now recycled — would be consulted.
func (w *wavefront) recycleViews() {
	for k := range w.slots {
		topology.PutTaskView(w.slots[k].view) // nil-safe: failed/skipped ranks have no view
		w.slots[k].view = nil
	}
	topology.PutTaskView(w.seed)
	w.seed = nil
}

// drainedLocked reports whether the wavefront has nothing left to do.
// Caller holds the pool lock.
func (w *wavefront) drainedLocked() bool {
	if w.inflight > 0 {
		return false
	}
	if w.canceled != nil {
		return true
	}
	if w.failRank >= 0 {
		return w.frontier >= w.failRank
	}
	return w.done == len(w.slots)
}

// advance grants core claims in rank order per device, probes cancellation,
// and revokes claims orphaned by a failure. It never launches; the pool
// does, so cross-member dispatch order stays deterministic. Caller holds
// the pool lock.
func (w *wavefront) advance() {
	if w.ctx != nil && w.canceled == nil {
		if err := w.ctx.Err(); err != nil {
			w.canceled = err
			w.pool.cond.Broadcast()
		}
	}
	if w.canceled != nil {
		return
	}
	limit := len(w.slots)
	if w.failRank >= 0 && w.failRank < limit {
		limit = w.failRank // nothing at or above the failure rank dispatches
	}
	for {
		progress := false
		for dev := range w.devs {
			// The ledger grants the whole run of consecutive dispatchable
			// head-of-queue ranks in one pass (sched.GrantBatch), so a
			// completion that unblocks several ranks costs one critical
			// section instead of one wakeup each. Devices are independent, and
			// dispatch is kept in rank order, so their order here is immaterial.
			cores := w.r.cs.Cores(w.r.cores, dev)
			for _, g := range w.devs[dev].GrantBatch(cores, w.r.base, limit, w.ready, w.readyAt) {
				sl := &w.slots[g.Rank]
				sl.claimCore, sl.claimStart = int32(g.Core), g.Start
				sl.state = tsClaimed
				w.ready[g.Rank] = false
				w.dispatch = insertRank(w.dispatch, g.Rank)
				progress = true
			}
		}
		// A failure revokes claims at or above the failure rank that have
		// not launched yet.
		if w.failRank >= 0 && len(w.dispatch) > 0 {
			keep := w.dispatch[:0]
			for _, k := range w.dispatch {
				if k < w.failRank {
					keep = append(keep, k)
					continue
				}
				w.ledger(k).Release(int(w.slots[k].claimCore))
				w.slots[k].state = tsSkipped
			}
			w.dispatch = keep
		}
		if !progress {
			return
		}
	}
}

// insertRank inserts k into an ascending rank slice.
func insertRank(s []int, k int) []int {
	i := sort.SearchInts(s, k)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = k
	return s
}

// seedView builds the task's causal clock view: the wavefront's seed
// snapshot merged with every predecessor's final view. Predecessor views
// are published under the pool lock before the successor launches, so
// reading them here without the lock is race-free.
func (w *wavefront) seedView(k int) *topology.TaskView {
	v := topology.GetTaskView(w.seed)
	for _, p := range w.r.g.Preds(k) {
		v.Merge(w.slots[p].view)
	}
	return v
}

// ledger returns the claim ledger of the device rank k is assigned to.
func (w *wavefront) ledger(k int) *sched.ClaimLedger {
	return &w.devs[w.r.schedule.Tasks[k].Dev]
}

// runTask is a task goroutine: it executes the claimed task (w, k), retires
// it, and then runs to completion — the retiring goroutine already holds the
// pool lock and has just advanced the dispatcher, so it keeps the task a
// launch would have started first (the same lowest-(rank, sequence) pick,
// possibly another member's) and executes it itself on its already-grown
// stack, spawning goroutines only for any further free slots. It returns
// when its slot has nothing left to run. Which goroutine executes a task is
// wall-clock only: virtual time is fixed by the claim ledger before launch.
func (w *wavefront) runTask(k int) {
	for more := true; more; {
		w, k, more = w.execAndRetire(k)
	}
}

// execAndRetire executes one claimed task and folds its outcome back into
// the dispatcher. It returns the task this goroutine continues with, if the
// pool has one for the slot it just gave back.
func (w *wavefront) execAndRetire(k int) (*wavefront, int, bool) {
	sl := &w.slots[k]
	view := w.seedView(k)
	fin, rep, err := w.r.execTaskAt(w, k, view, sl.claimStart)
	// The view is also the task's access ledger: hand its counts to the
	// shared counters now, however the task ended — ran, failed mid-body,
	// was aborted at a fence, or was restored — and before it is retired
	// below, so no one can see the task done and its accesses missing.
	view.Publish()

	p := w.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	w.inflight--
	p.slots++
	w.ledger(k).Release(int(sl.claimCore))
	if rep != nil {
		// The task ran to completion (possibly with a release error):
		// its core clock is recorded either way, exactly like the
		// sequential engine, and its report (r.reports[k]) stands.
		sl.reported = true
		w.r.coresOf(k)[sl.claimCore] = fin
		sl.finish = fin
	}
	if err != nil {
		sl.state = tsFailed
		if !errors.Is(err, errWavefrontAborted) && (w.failRank < 0 || k < w.failRank) {
			w.failRank, w.failErr, w.failTask = k, err, w.r.g.Order[k].ID()
		}
		// The failed task's view was never published to its slot, so nothing
		// merges from it or prices through it again — recycle it now.
		topology.PutTaskView(view)
	} else {
		sl.state = tsDone
		w.done++
		sl.view = view
		for _, sk := range w.r.g.Succs(k) {
			succ := &w.slots[sk]
			succ.unmet--
			if fin > w.readyAt[sk] {
				w.readyAt[sk] = fin
			}
			if succ.unmet == 0 && succ.state == tsWaiting {
				succ.state = tsReady
				w.ready[sk] = true
			}
		}
		for w.frontier < len(w.slots) && w.slots[w.frontier].state == tsDone {
			w.frontier++
		}
	}
	w.advance()
	nw, nk, more := p.next() // this goroutine's next task, before any spawn
	p.launch()
	p.cond.Broadcast()
	return nw, nk, more
}

// fence blocks the calling task (rank k) until the ordering its access
// needs is established — the barrier installed on coherence-priced accesses
// and global first-use. deps == nil demands the full rank barrier (every
// rank below k completed): the conservative form used for open sharing and
// first-use creation, where the set of ordering-relevant parties is
// unknowable. A non-nil deps lists the region's happens-before sharer set
// (region.Handle.fenceDeps); the fence then waits only for those ranks, so
// a region whose sharing phase has passed stops serializing the whole run.
// The barrier is strictly per member: batch mates sharing the pool never
// fence against each other. The waiting task releases its worker slot so
// the pool cannot starve; it aborts if a rank below it fails (its own
// outcome would be unobservable sequentially — this also covers deps that
// failed or were revoked and will never retire) or the run is canceled.
//
// The dispatcher is found through the run, under the pool lock, and only
// while the run is attached. A handle a task body kept can call this long
// after its job settled, when the dispatcher it ran under is serving another
// job: it finds r.w nil — a run that is over has nothing left to order — and
// never looks at recycled state.
func (r *run) fence(k int, deps []int) error {
	p := r.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	w := r.w
	if w == nil || w.fenceOpenLocked(k, deps) {
		return nil
	}
	p.slots++
	// This goroutine cannot run a task while it waits: advance this member
	// and let the pool start whatever is now dispatchable, across all members.
	w.advance()
	p.launch()
	defer func() { p.slots-- }()
	for r.w == w && !w.fenceOpenLocked(k, deps) {
		if w.failRank >= 0 && w.failRank < k {
			return errWavefrontAborted
		}
		if w.canceled != nil {
			return w.canceled
		}
		p.cond.Wait()
	}
	return nil
}

// fenceOpenLocked reports whether rank k's fence requirement already holds:
// every rank below k retired (the frontier passed k), or — when deps lists
// the access's happens-before set — every listed rank below k completed.
// Caller holds the pool lock.
func (w *wavefront) fenceOpenLocked(k int, deps []int) bool {
	if w.frontier >= k {
		return true
	}
	if deps == nil {
		return false
	}
	for _, d := range deps {
		if d < k && w.slots[d].state != tsDone {
			return false
		}
	}
	return true
}

// computePeak sweeps the run's virtual memory ledger — every task's journal;
// in a run that succeeded each task ran to completion, so each journal is
// whole — in deterministic (time, rank, seq) order and records the per-device
// high-water mark. Regions never released (job globals, retained final
// outputs) stay live through the end of the sweep, matching their actual
// lifetime.
func (r *run) computePeak() {
	sc := r.sc
	events := sc.events[:0]
	for k := range r.ctxs {
		events = append(events, r.ctxs[k].events...)
	}
	sc.events = events
	slices.SortFunc(events, func(a, b memEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.rank, b.rank), cmp.Compare(a.seq, b.seq))
	})
	live, cur, peak := sc.live, sc.cur, r.report.PeakDeviceBytes
	clear(live)
	clear(cur)
	bump := func(dev string) {
		if cur[dev] > peak[dev] {
			peak[dev] = cur[dev]
		}
	}
	for _, e := range events {
		lr, known := live[e.id]
		switch {
		case e.kind == evAlloc:
			lr = liveRegion{dev: e.dev, bytes: e.bytes, refs: 1}
			cur[e.dev] += e.bytes
			bump(e.dev)
		case !known:
			continue
		case e.kind == evShare:
			lr.refs++
		case e.kind == evRelease:
			if lr.refs--; lr.refs == 0 {
				cur[lr.dev] -= lr.bytes
				delete(live, e.id)
				continue
			}
		case e.kind == evMove && lr.dev != e.dev:
			cur[lr.dev] -= lr.bytes
			lr.dev = e.dev
			cur[e.dev] += lr.bytes
			bump(e.dev)
		}
		live[e.id] = lr
	}
}

// liveRegion is a region as computePeak's sweep sees it: where it is, how
// big, and how many owners it has left.
type liveRegion struct {
	dev   string
	bytes int64
	refs  int
}

// note journals one ledger event at the context's current virtual time.
func (c *taskCtx) note(kind evKind, id region.ID, dev string, bytes int64) {
	c.events = append(c.events, memEvent{
		at: c.now, rank: c.rank, seq: c.evseq,
		id: id, kind: kind, dev: dev, bytes: bytes,
	})
	c.evseq++
}

func (c *taskCtx) noteAlloc(h *region.Handle, size int64) {
	if dev, err := h.DeviceID(); err == nil {
		c.note(evAlloc, h.ID(), dev, allocator.BlockSize(size))
	}
}

func (c *taskCtx) noteShare(h *region.Handle)   { c.note(evShare, h.ID(), "", 0) }
func (c *taskCtx) noteRelease(h *region.Handle) { c.note(evRelease, h.ID(), "", 0) }

func (c *taskCtx) noteMove(h *region.Handle) {
	if dev, err := h.DeviceID(); err == nil {
		c.note(evMove, h.ID(), dev, 0)
	}
}
