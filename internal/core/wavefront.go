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
// A wavefront executes inside a wavePool, and the pool alone runs its
// members: drive (exec.go) joins them and takes them back as they settle.
// Runtime.Run and RunAll drive a fresh pool with a single member; a Server's
// epoch worker drives its own pool batch after batch, joining every batch
// member (and every recovery retry) to it, so many jobs' ready tasks compete
// for the same bounded worker slots concurrently.
// Determinism generalizes from one job to N because everything virtual is
// per member — seed views, core clocks, claim ledgers, fences, failure
// frontiers — and the only shared state, the pool's wall-clock worker
// slots, never feeds back into virtual time. Cross-member dispatch order is
// itself deterministic: the pool launches the lowest (rank, submission
// sequence) claimed task (sched.BatchBefore).
//
// Peak device memory is likewise virtualized: tasks journal alloc / share /
// release / migrate events stamped with (virtual time, rank), in the order
// they happen, and the high-water mark per device is computed by a
// deterministic sweep over the sorted journal instead of sampling wall-clock
// allocator state.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
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

// memEvent is one entry in the run's virtual memory ledger. Events are
// totally ordered, deterministically, by virtual time, then task rank, then
// their place in the task's journal (computePeak).
type memEvent struct {
	at    time.Duration
	id    region.ID
	bytes int64 // evAlloc: allocator block size
	dev   int32 // evAlloc / evMove: the region's (new) home device, by dense index
	rank  int32
	kind  evKind
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
	mu sync.Mutex
	// cond wakes fenced tasks as ranks retire; drain wakes settled, the
	// one goroutine driving the pool, only when a member has drained.
	cond  *sync.Cond
	drain sync.Cond
	// slots counts free worker slots. It transiently dips below zero when a
	// fenced task resumes before a launch completes, matching the bounded
	// overshoot the single-job dispatcher always had.
	slots int
	// members holds the wavefronts joined and not yet settled, in no order
	// that matters: one leaves (settled) once it has drained, so next never
	// reads a dispatcher that was recycled since. seq counts the joins, which
	// is what numbers them.
	members []*wavefront
	seq     int
	// claims holds the tasks launch claimed for goroutines it started that
	// have not taken them up yet. Those goroutines all start in start, one
	// function value made with the pool, so starting one allocates nothing.
	claims []claim
	start  func()
}

// claim is a task launch claimed, rank k of w, on its way to a goroutine.
type claim struct {
	w *wavefront
	k int
}

// newWavePool builds a pool with the given worker bound (minimum 1).
func newWavePool(workers int) *wavePool {
	if workers <= 0 {
		workers = 1
	}
	p := &wavePool{slots: workers}
	p.cond = sync.NewCond(&p.mu)
	p.drain.L = &p.mu
	p.start = p.runClaim
	return p
}

// join attaches the members' current attempts — a member with none settled
// before it could join — grants each its initial claims, and only then
// launches, so the pool's (rank, submission) tiebreak sees them all at once.
// An attempt with nothing to dispatch (its rank-0 task failed the injector's
// pre-pass, or its submitter gave up) drains right here; settled finds it.
func (p *wavePool) join(ms []member) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range ms {
		if w := ms[i].w; w != nil {
			// A retry's sequence is later than everything joined before it.
			w.pool, w.seq = p, p.seq
			p.seq++
			p.members = append(p.members, w)
			w.r.pool, w.r.w = p, w
			w.advance()
		}
	}
	p.launch()
}

// settled blocks until an attached member has drained, detaches it and
// returns it. Nothing reaches it through the pool or its run from here on —
// its run's fences find it over — so once finalized it can serve another
// job. Caller is the one goroutine driving the pool, with a member attached.
func (p *wavePool) settled() *wavefront {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for i, w := range p.members {
			if w.drainedLocked() {
				last := len(p.members) - 1
				p.members[i], p.members[last] = p.members[last], nil
				p.members = p.members[:last]
				w.r.w = nil
				return w
			}
		}
		p.drain.Wait()
	}
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
		p.claims = append(p.claims, claim{w, k})
		go p.start()
	}
}

// runClaim is a task goroutine launch started: it takes up one of the claims
// and runs it. Which claim is wall-clock only, like which goroutine runs it.
func (p *wavePool) runClaim() {
	p.mu.Lock()
	last := len(p.claims) - 1
	c := p.claims[last]
	p.claims[last] = claim{}
	p.claims = p.claims[:last]
	p.mu.Unlock()
	c.w.runTask(c.k)
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
}

// wavefront is one run's dispatcher state — one member of a wavePool. All of
// it is indexed by task rank (the run's graph) or by compute-device index
// (the run's compute set); nothing here is looked up by ID. It lives in the
// job's scratch: newWavefront fills it anew for every attempt, over the tables
// the last one left. The tasks' clock views are the scratch's too: rank k's is
// r.sc.views[k], final once the rank is tsDone.
type wavefront struct {
	r    *run
	pool *wavePool
	seq  int             // submission sequence within the pool (dispatch tiebreak)
	ctx  context.Context // the submitter's, probed for cancellation (Server); nil never cancels

	// baseCores snapshots the run's core clocks at wavefront construction,
	// so a failure can rewind them to the deterministic sequential state. A
	// retry starts on clocks that hold the earlier attempts' completions, so a
	// failed retry rewinds to them and not to idle clocks.
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
// for it: per-device claim queues, predecessor counts, the view table, the
// core-clock snapshot failure rewinds restore, and the eager rank-ordered
// injection / restore pre-pass. The returned wavefront is not yet attached to
// a pool. On a validation error the failing task's ID is returned and the
// caller owns run cleanup.
func (r *run) newWavefront(ctx context.Context) (*wavefront, string, error) {
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
		r: r, ctx: ctx,
		slots: sized(w.slots, n), ready: sized(w.ready, n), readyAt: sized(w.readyAt, n),
		devs: devs, queue: sized(w.queue, n), baseCores: append(w.baseCores[:0], r.cores...),
		failRank: -1,
	}
	w.dispatch = w.queue[:0]
	for d := range w.devs {
		w.devs[d].Reset()
	}
	r.sc.views = slices.Grow(r.sc.views[:0], n)[:n]
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
	// rank order, exactly as the sequential loop would take them: tasks
	// checkpointed by a prior attempt never step the injector, and stepping
	// stops at the first failure (ranks above it do not step, so their counts
	// do not move). A verdict is a pure function of the job name, the
	// task and the submission's count of its executions, which only this
	// pass writes, so taking it here is identical to taking it at dispatch
	// time. A task that created a job global is re-executed, not restored, so
	// the global exists again for the successors that read it; it steps the
	// injector like any task that runs.
	for k, t := range order {
		if r.ck != nil {
			if e, ok := r.ck.lookup(t.ID()); ok && !e.createdGlobal {
				w.slots[k].restored = true
				if r.partial && r.lazy == nil {
					r.sc.lazy = sized(r.sc.lazy, n)
					r.lazy = r.sc.lazy
				}
				continue
			}
		}
		if r.inject != nil {
			err := r.inject.Step(r.job.Name(), t.ID(), r.sc.executed[k])
			r.sc.executed[k]++
			if err != nil {
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
// success, merges its clock views into the run's seed, if it has one, and
// finalizes the report's peak-memory and makespan figures. The views stay in
// the scratch: every one was published as its task retired, and every handle
// that could price through one is released with the run, so a later job may
// reset them. On failure it additionally drops snapshots that ranks above the
// failure produced out of sequential order, and rewinds the run's core clocks
// to the deterministic post-failure state: the construction-time snapshot
// replayed with exactly the completions a sequential run would have made
// (reported ranks at or below the failure). Without the rewind, in-flight tasks above the failure rank
// — which only exist at Workers>1 — would leave their finish times on the
// clocks and make every retry's virtual time depend on the pool size.
//
// Must be called exactly once, on the member settled returned: no task
// goroutine of it is live, so its state is safe to read unlocked.
func (w *wavefront) finalize() (failedTask string, err error) {
	r := w.r
	if w.canceled != nil {
		r.cleanup()
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
		copy(r.cores, w.baseCores)
		for k := 0; k <= w.failRank && k < len(w.slots); k++ {
			if sl := &w.slots[k]; sl.reported {
				r.coresOf(k)[sl.claimCore] = sl.finish
			}
		}
		r.cleanup()
		return w.failTask, w.failErr
	}

	// Success: merge every task's clock view into the seed, so the job RunAll
	// drives next queues behind this one's device backlog.
	if r.seed != nil {
		for k := range w.slots {
			r.seed.Merge(&r.sc.views[k])
		}
	}
	r.cleanup()
	r.fillReport(w.slots)
	r.computePeak()
	return "", nil
}

// fillReport makes a succeeded run's Report, with its task reports in rank
// order and what only the task contexts recorded copied out of them: each
// task's placements, as its window of one block the size of them all, and the
// sinks' retained outputs, both in the report's own storage when they fit; and
// each task's log lines, as its window of one block of lines that are pieces
// of one string — two allocations for a job that logged, none for one that did
// not.
func (r *run) fillReport(slots []slot) {
	rep := r.newReport()
	placed, sinks, lines, size := 0, 0, 0, 0
	for k := range r.ctxs {
		c := &r.ctxs[k]
		placed += len(c.regions)
		if c.finalDev != "" {
			sinks++
		}
		lines += len(c.logEnds)
		size += len(c.logText)
	}
	block := tail(rep.placed[:], placed)
	rep.FinalOutputs = tail(rep.outs[:], sinks)
	var logs []string
	var text strings.Builder
	if lines > 0 {
		logs = make([]string, 0, lines)
		text.Grow(size)
		for k := range r.ctxs {
			text.Write(r.ctxs[k].logText)
		}
	}
	all, base := text.String(), 0
	for k := range r.reports {
		c, tr := &r.ctxs[k], &r.reports[k]
		if len(c.regions) > 0 {
			at := len(block)
			block = append(block, c.regions...)
			tr.Regions = block[at:len(block):len(block)]
		}
		if len(c.logEnds) > 0 {
			at, from := len(logs), base
			for _, end := range c.logEnds {
				logs = append(logs, all[from:base+end])
				from = base + end
			}
			tr.Logs = logs[at:len(logs):len(logs)]
		}
		base += len(c.logText)
		if c.finalDev != "" {
			rep.FinalOutputs = append(rep.FinalOutputs, TaskOutput{Task: tr.Task, Device: c.finalDev})
		}
		if tr.Finish > rep.Makespan {
			rep.Makespan = tr.Finish
		}
		if slots[k].restored {
			rep.SkippedTasks++
		}
	}
}

// newReport makes the run's Report, the one allocation of a report whose
// tails fit in it.
func (r *run) newReport() *Report {
	r.report = &Report{Job: r.job.Name(), Scheduler: r.rt.sched.Name(), Placer: r.rt.placer.Name(), Tasks: r.reports}
	return r.report
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
			for _, g := range w.devs[dev].GrantBatch(cores, limit, w.ready, w.readyAt) {
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

// seedView builds the task's causal clock view in its slot of the view
// table: the run's seed (idle when it has none) merged with every
// predecessor's final view. The predecessors are done — the pool lock that
// retired them ordered their views' last writes before this launch — and the
// seed is written only once the run has drained, so reading them here without
// the lock is race-free.
func (w *wavefront) seedView(k int) *topology.TaskView {
	views := w.r.sc.views
	v := &views[k]
	v.Reset(w.r.seed)
	for _, p := range w.r.g.Preds(k) {
		v.Merge(&views[p])
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
	} else {
		sl.state = tsDone
		w.done++
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
	if w.drainedLocked() {
		p.drain.Signal()
	}
	nw, nk, more := p.next() // this goroutine's next task, before any spawn
	p.launch()
	p.cond.Broadcast()
	return nw, nk, more
}

// After implements region.Fence: it blocks the task of rank k (rank) until
// the ordering its access needs is established — the barrier the run is,
// installed on the handles its tasks touch for coherence-priced accesses, and
// taken at a global's first use. deps == nil demands the full rank barrier
// (every rank below k completed): the conservative form used for open sharing
// and first-use creation, where the set of ordering-relevant parties is
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
// while the run is attached. A run is never recycled, and the rank comes with
// the access, so a handle a task body kept can call this long after its job
// settled — when the dispatcher and the context slots its task ran in serve
// another job — and finds r.w nil: a run that is over has nothing left to
// order, and nothing recycled is looked at.
func (r *run) After(rank int32, deps []int32) error {
	k := int(rank)
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
func (w *wavefront) fenceOpenLocked(k int, deps []int32) bool {
	if w.frontier >= k {
		return true
	}
	if deps == nil {
		return false
	}
	for _, d := range deps {
		if int(d) < k && w.slots[d].state != tsDone {
			return false
		}
	}
	return true
}

// computePeak sweeps the run's virtual memory ledger — every task's journal;
// in a run that succeeded each task ran to completion, so each journal is
// whole — in deterministic (time, rank, journal position) order and records
// the per-device high-water mark in the report fillReport made, by device.
// The journals are gathered in rank order and each is in the order its task
// noted them, so a stable sort on (time, rank) keeps that order. Regions never
// released (job globals, retained final outputs) stay live through the end of
// the sweep, matching their actual lifetime.
//
// The live table is indexed by a run-local region number: the region's place
// among the IDs the run allocated, sorted. An event on a region the run did
// not allocate finds no number and is skipped, as is one on a region whose
// owners are all gone.
func (r *run) computePeak() {
	sc := r.sc
	events, ids := sc.events[:0], sc.ids[:0]
	for k := range r.ctxs {
		for _, e := range r.ctxs[k].events {
			events = append(events, e)
			if e.kind == evAlloc {
				ids = append(ids, e.id)
			}
		}
	}
	sc.events, sc.ids = events, ids
	slices.SortStableFunc(events, func(a, b memEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.rank, b.rank))
	})
	slices.Sort(ids)
	sc.live = sized(sc.live, len(ids))
	live := sc.live
	mems := r.rt.topo.Memories()
	sc.cur, sc.peak = sized(sc.cur, len(mems)), sized(sc.peak, len(mems))
	cur, peak := sc.cur, sc.peak
	held := 0 // devices whose peak is above zero
	add := func(dev int32, bytes int64) {
		if cur[dev] += bytes; cur[dev] > peak[dev] {
			if peak[dev] == 0 {
				held++
			}
			peak[dev] = cur[dev]
		}
	}
	for _, e := range events {
		n, ours := slices.BinarySearch(ids, e.id)
		if !ours {
			continue
		}
		lr := &live[n]
		switch {
		case e.kind == evAlloc:
			*lr = liveRegion{dev: e.dev, bytes: e.bytes, refs: 1}
			add(e.dev, e.bytes)
		case lr.refs == 0:
			// Not allocated yet, or every owner is gone.
		case e.kind == evShare:
			lr.refs++
		case e.kind == evRelease:
			if lr.refs--; lr.refs == 0 {
				cur[lr.dev] -= lr.bytes
			}
		case e.kind == evMove && lr.dev != e.dev:
			cur[lr.dev] -= lr.bytes
			lr.dev = e.dev
			add(e.dev, lr.bytes)
		}
	}
	out := tail(r.report.peaks[:], held)
	for i, b := range peak {
		if b > 0 {
			out = append(out, DeviceBytes{Device: mems[i].ID, Bytes: b})
		}
	}
	slices.SortFunc(out, func(a, b DeviceBytes) int { return strings.Compare(a.Device, b.Device) })
	r.report.PeakDeviceBytes = out
}

// liveRegion is a region as computePeak's sweep sees it: where it is (its
// device's dense index), how big, and how many owners it has left.
type liveRegion struct {
	dev   int32
	bytes int64
	refs  int
}

// note journals one ledger event at the context's current virtual time.
func (c *taskCtx) note(kind evKind, id region.ID, dev int, bytes int64) {
	c.events = append(c.events, memEvent{
		at: c.now, rank: int32(c.rank),
		id: id, kind: kind, dev: int32(dev), bytes: bytes,
	})
}

// noteAlloc journals a region the task allocated and records its placement
// under label for the report, from one read of the handle.
func (c *taskCtx) noteAlloc(h *region.Handle, size int64, label string) {
	if f, err := h.Facts(); err == nil {
		c.note(evAlloc, h.ID(), f.Mem, allocator.BlockSize(size))
		c.noteDevice(label, f.Device)
	}
}

func (c *taskCtx) noteShare(h *region.Handle) { c.note(evShare, h.ID(), 0, 0) }

func (c *taskCtx) noteMove(h *region.Handle, dev int) { c.note(evMove, h.ID(), dev, 0) }
