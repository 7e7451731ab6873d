package core

// This file implements core.Server — the concurrent job-submission engine
// the paper's deployment story implies (§2.1: "dataflow systems that serve
// thousands of jobs in parallel"). Runtime.Run gives per-call clock
// isolation; Server adds what a multi-tenant front door needs on top:
//
//   - a bounded admission queue with configurable backpressure (fail fast
//     with ErrQueueFull, or block until a slot frees) and an async
//     ticket-based submission API (SubmitAsync/Ticket) mirroring the
//     paper's future-based far-memory interface at the job level,
//   - epoch workers that batch whatever is queued and *overlap* the whole
//     batch on one bounded worker pool: every member's ready tasks compete
//     for the shared slots in deterministic (rank, submission) order while
//     each member's virtual time stays byte-identical to running the job
//     alone (separate batches are fully isolated too),
//   - per-job context cancellation and deadlines, honored while queued and
//     between tasks during execution,
//   - optional fault-tolerant execution (ServerConfig.Recovery): task
//     outputs are checkpointed into a shared fault.Store and failed jobs
//     are retried inside their batch with checkpointed tasks restored
//     instead of re-executed (challenge 8(3)),
//   - graceful drain on Close, and
//   - per-job admission / queue-wait / rejection counters plus spans in the
//     runtime's telemetry registry, so the serving path is observable.
//
// Within a batch, each submission gets a unique owner namespace, so many
// tenants may submit jobs with the same name concurrently. The server admits,
// batches, plans and stamps reports; executing a batch — retries included —
// is the engine's drive loop (exec.go), the same one a solo Runtime.Run uses.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Errors reported by the serving layer.
var (
	// ErrQueueFull is returned by Submit when the admission queue is full
	// and the server was configured to reject rather than block.
	ErrQueueFull = errors.New("core: server admission queue full")
	// ErrServerClosed is returned by Submit after Close started draining.
	ErrServerClosed = errors.New("core: server closed")
)

// ServerConfig assembles a Server. Zero fields get serving defaults.
//
// The embedded ExecConfig is the single source of execution knobs — the
// topology, placer, scheduler, telemetry, fault injection, and the
// worker-pool bound (ExecConfig.Workers) every batch's tasks share: NewServer
// builds the server's runtime from it (Server.Runtime returns it), and its
// zero value gives the reference testbed, best-fit placer, and HEFT
// scheduler. Note the worker-knob split: ExecConfig.Workers bounds *task*
// concurrency inside one batch, EpochWorkers bounds how many *batches* run at
// once.
type ServerConfig struct {
	ExecConfig
	// QueueDepth bounds the admission queue (default 64). Submissions
	// beyond the bound are rejected or block, per Block.
	QueueDepth int
	// EpochWorkers is the number of epoch workers serving the queue
	// (default 4). Each worker runs one batch at a time; batches run
	// concurrently.
	EpochWorkers int
	// MaxBatch caps how many queued jobs one worker folds into one batch
	// (default 8), whose members overlap on the worker's pool. 1 disables
	// batching: every job runs alone.
	MaxBatch int
	// Block selects the backpressure policy: false (default) makes Submit
	// fail fast with ErrQueueFull when the queue is full; true makes it
	// block until a slot frees or the submission's context ends.
	Block bool
	// Recovery, when set, makes every admitted job run fault-tolerantly:
	// task outputs are checkpointed into the policy's store and a failed
	// job is retried in place (restored tasks replayed inside its batch) up
	// to MaxAttempts. Nil disables recovery: failures surface directly to
	// the submitter.
	Recovery *RecoveryPolicy
	// SLO, when set, makes admission deadline-aware: every submission is
	// priced with the scheduler's makespan estimate against a deterministic
	// queue model of the pool, and predicted deadline misses are rejected
	// (ErrDeadline) or down-tiered before they consume a queue slot. The
	// model charges capacity at decision time; a submission the queue then
	// refuses gives its charge back unless another was charged since. See
	// slo.go.
	SLO *SLOPolicy
	// AutoScale, when set, lets the server grow and shrink its live
	// epoch-worker pool between the policy's bounds, steering the observed
	// queue-wait p99 toward the policy target. Purely a wall-clock control:
	// it never alters admission decisions or virtual-time reports.
	AutoScale *AutoScalePolicy
}

// Ticket is an asynchronously admitted submission, returned by SubmitAsync.
// Exactly one outcome is delivered per ticket; once Done() is closed, Wait
// returns that outcome without blocking, any number of times, from any
// goroutine.
type Ticket struct {
	id         uint64
	bestEffort bool
	done       chan struct{}
	report     *Report
	err        error
}

// ID returns the submission's admission sequence number, unique per server
// — the same number that namespaces the job's regions and checkpoints.
func (t *Ticket) ID() uint64 { return t.id }

// BestEffort reports whether SLO admission down-tiered this submission
// (predicted deadline miss under a DownTier policy). Known at admission
// time, so callers can log the tier before the job runs.
func (t *Ticket) BestEffort() bool { return t.bestEffort }

// Done returns a channel closed when the job's outcome is available.
// Callers multiplexing many tickets select on it and then call Wait.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the outcome is available or ctx ends; a nil ctx means
// context.Background(). Wait returning ctx.Err() abandons only this call —
// the job's lifetime follows the context given to SubmitAsync, and a later
// Wait still observes the outcome.
func (t *Ticket) Wait(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-t.done:
		return t.report, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deliver publishes the outcome. Called exactly once, by the serving side.
func (t *Ticket) deliver(rep *Report, err error) {
	t.report, t.err = rep, err
	close(t.done)
}

// NewRoutedTicket mints a caller-owned ticket for a routing front end (a
// shard router) that multiplexes server tickets behind its own: the router
// returns the routed ticket to the submitter and Delivers the outcome of
// whichever shard attempt finally settles the job. Never handed to a
// Server.
func NewRoutedTicket(id uint64, bestEffort bool) *Ticket {
	return &Ticket{id: id, bestEffort: bestEffort, done: make(chan struct{})}
}

// Deliver publishes the outcome of a routed ticket (NewRoutedTicket). Must
// be called exactly once; calling it on a server-issued ticket is a bug
// (the server delivers those itself).
func (t *Ticket) Deliver(rep *Report, err error) { t.deliver(rep, err) }

// jobTicket is one admitted submission's server-side state, the submitter's
// Ticket included: the two are one object.
type jobTicket struct {
	Ticket
	job      *dataflow.Job
	ctx      context.Context
	enqueued time.Time
	// SLO admission state (zero without ServerConfig.SLO): the plan the
	// estimate was derived from — reused by its batch instead of
	// replanning — plus the deadline judged against, the model's predicted
	// sojourn. Whether the job was down-tiered to best-effort is the
	// Ticket's bestEffort.
	plan      *sched.Schedule
	deadline  time.Duration
	slowait   time.Duration // model's predicted virtual queue wait
	predicted time.Duration // slowait + makespan estimate
	// Sharded-serving metadata (SubmitOptions.Shard/ResumeID): the shard
	// label stamped on the report, and the externally owned checkpoint
	// namespace a failover re-submission resumes from.
	shard  string
	resume string
}

// deliver publishes the outcome and lets go of what the server held to produce
// it: the ticket is the submitter's to keep, and one kept past its outcome
// holds the report and not the job, its context and its plan with it.
func (t *jobTicket) deliver(rep *Report, err error) {
	t.job, t.ctx, t.plan, t.resume = nil, nil, nil, ""
	t.Ticket.deliver(rep, err)
}

// Submitter is the submission side of a serving stack — what a traffic
// harness or a CLI needs of one. *Server is a Submitter and so is
// shard.Cluster, so whatever drives one drives the other unchanged.
type Submitter interface {
	// SubmitAsync admits a job and returns its ticket, or an admission error.
	SubmitAsync(ctx context.Context, job *dataflow.Job, opts ...SubmitOptions) (*Ticket, error)
	// Close stops admission and drains what was admitted.
	Close(ctx context.Context) error
	// Runtime is the runtime behind the front door (a cluster's first
	// shard's): the topology and scheduler to price sample jobs with, and the
	// telemetry registry the stack counts into.
	Runtime() *Runtime
}

var _ Submitter = (*Server)(nil)

// Server is the admission-controlled serving engine. It is safe for
// concurrent use by multiple goroutines.
type Server struct {
	rt       *Runtime
	workers  int // configured EpochWorkers (the auto-scaler's baseline)
	maxBatch int
	block    bool
	rec      *recoveryState // nil: recovery disabled
	slo      *sloState      // nil: admission is deadline-blind
	scaler   *scaler        // nil: fixed worker pool

	// queueWait is the server_queue_wait histogram every dequeued ticket is
	// observed into, resolved once — as are the counters every job or batch
	// adds to.
	queueWait                   *telemetry.Histogram
	admitted, completed, epochs *telemetry.Counter

	queue chan *jobTicket
	// shrink carries the auto-scaler's scale-down tokens; a worker that
	// observes one exits. Nil (blocking forever in selects) without a
	// scaler.
	shrink chan struct{}
	wg     sync.WaitGroup
	seq    atomic.Uint64

	// gate serializes admission against Close: submissions hold the read
	// side while enqueueing, Close takes the write side to flip closed, so
	// the queue channel is only closed once no send can be in flight.
	gate   sync.RWMutex
	closed bool
}

// NewServer builds and starts a serving engine: its workers are live when
// NewServer returns. Callers must Close it to drain.
func NewServer(cfg ServerConfig) (*Server, error) {
	rt, err := New(cfg.ExecConfig)
	if err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	workers := cfg.EpochWorkers
	if workers <= 0 {
		workers = 4
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 8
	}
	rec, err := resolveRecovery(cfg.Recovery)
	if err != nil {
		return nil, err
	}
	s := &Server{
		rt:        rt,
		workers:   workers,
		maxBatch:  maxBatch,
		block:     cfg.Block,
		rec:       rec,
		queueWait: rt.tel.HistHandle(telemetry.LayerRuntime, "server_queue_wait"),
		admitted:  rt.tel.Handle(telemetry.LayerRuntime, "server_admitted"),
		completed: rt.tel.Handle(telemetry.LayerRuntime, "server_completed"),
		epochs:    rt.tel.Handle(telemetry.LayerRuntime, "server_epochs"),
		queue:     make(chan *jobTicket, depth),
	}
	if cfg.SLO != nil {
		s.slo = newSLOState(*cfg.SLO, workers)
	}
	if cfg.AutoScale != nil {
		s.scaler = newScaler(s, *cfg.AutoScale, workers)
		s.shrink = make(chan struct{}, s.scaler.pol.Max)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.scaler != nil {
		go s.scaler.loop()
	}
	return s, nil
}

// Runtime returns the runtime executing the admitted jobs.
func (s *Server) Runtime() *Runtime { return s.rt }

// Rebalance runs one region-tiering sweep on the server's runtime, priced
// inside a private, idle clock view (region.RebalanceIn) so it is safe to
// call while the server is serving: admitted jobs never observe the sweep's
// device backlog. The view is published after the sweep, so the migrations'
// device counts land. With an exporter wired into the region manager
// (cross-shard migration), the sweep may also evict cold regions to the
// remote pool and recall hot exported ones.
func (s *Server) Rebalance(now time.Duration, pol region.RebalancePolicy) (region.RebalanceStats, error) {
	clk := s.rt.topo.NewTaskView()
	defer clk.Publish()
	return s.rt.regions.RebalanceIn(clk, now, pol)
}

// Checkpointer returns the recovery checkpointer, or nil when the server
// was built without a RecoveryPolicy.
func (s *Server) Checkpointer() *Checkpointer {
	if s.rec == nil {
		return nil
	}
	return s.rec.ck
}

// ResolveOptions folds a variadic options list into the single effective
// SubmitOptions — the unified submission surface accepts at most one. Every
// Submitter resolves its options through it.
func ResolveOptions(opts []SubmitOptions) (SubmitOptions, error) {
	switch len(opts) {
	case 0:
		return SubmitOptions{}, nil
	case 1:
		return opts[0], nil
	default:
		return SubmitOptions{}, errors.New("core: at most one SubmitOptions per submission")
	}
}

// SubmitAsync admits a job without waiting for it to execute: it returns a
// Ticket as soon as the job is queued, or an admission error (a validation
// failure, ErrQueueFull, ErrServerClosed, ErrDeadline under an SLO policy,
// or — when Block is set and the queue stays full — ctx's error)
// immediately. The submission ctx governs the job's whole lifetime, exactly
// as with Submit: a job canceled while queued is never executed; one
// canceled mid-run is stopped at the next task boundary and its regions are
// released. The outcome is retrieved via the ticket (Done, Wait).
//
// At most one SubmitOptions may be passed — the whole per-submission
// surface in one place: virtual arrival and deadline for the SLO admission
// model, the shard label, an external checkpoint namespace to resume from,
// and pre-admission. Traffic harnesses submit through the options so
// replayed arrival sequences make identical admission decisions run-to-run.
// Submit and SubmitStream accept the same options; omitted options mean a
// plain submission.
func (s *Server) SubmitAsync(ctx context.Context, job *dataflow.Job, opts ...SubmitOptions) (*Ticket, error) {
	opt, err := ResolveOptions(opts)
	if err != nil {
		return nil, err
	}
	return s.submitAsync(ctx, job, opt)
}

// submitAsync is the single admission path behind Submit, SubmitAsync, and
// (per window) SubmitStream.
func (s *Server) submitAsync(ctx context.Context, job *dataflow.Job, opt SubmitOptions) (*Ticket, error) {
	if job == nil {
		return nil, errors.New("core: nil job")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	// A submission whose context already ended must never reach the queue:
	// it would ride a batch slot only to be dropped at dequeue. Refuse it
	// here and account it as canceled, not rejected — the server had room,
	// the submitter had given up.
	if err := ctx.Err(); err != nil {
		s.rt.tel.Add(telemetry.LayerRuntime, "server_canceled", 1)
		return nil, err
	}
	t := &jobTicket{
		Ticket: Ticket{id: s.seq.Add(1), done: make(chan struct{})},
		job:    job, ctx: ctx, enqueued: time.Now(),
		shard: opt.Shard, resume: opt.ResumeID,
	}
	charged := false
	var charge sloCharge
	if s.slo != nil && !opt.Preadmitted {
		est, plan, err := sched.EstimateJob(job, s.rt.topo, s.rt.sched)
		if err != nil {
			return nil, err
		}
		wait, predicted, tier, c := s.slo.admit(opt, est.Makespan)
		if tier == tierRejected {
			s.rt.tel.Add(telemetry.LayerRuntime, "server_slo_rejected", 1)
			return nil, fmt.Errorf("%w: predicted %v, deadline %v", ErrDeadline, predicted, opt.Deadline)
		}
		charged, charge = true, c
		t.plan, t.slowait, t.predicted = plan, wait, predicted
		t.deadline = opt.Deadline
		if tier == tierBestEffort {
			t.bestEffort = true
			s.rt.tel.Add(telemetry.LayerRuntime, "server_downtiered", 1)
		}
	}
	if err := s.enqueue(ctx, t); err != nil {
		// The job never runs: it gives back the capacity it was charged.
		if charged {
			s.slo.refund(charge)
		}
		s.rt.tel.Add(telemetry.LayerRuntime, "server_rejected", 1)
		return nil, err
	}
	s.admitted.Add(1)
	return &t.Ticket, nil
}

// enqueue puts an admitted ticket on the queue, or says why it could not:
// ErrServerClosed, ErrQueueFull without Block, and with Block ctx's error if
// it ends while the queue is full.
func (s *Server) enqueue(ctx context.Context, t *jobTicket) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.closed {
		return ErrServerClosed
	}
	if s.block {
		select {
		case s.queue <- t:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case s.queue <- t:
		return nil
	default:
		return ErrQueueFull
	}
}

// Submit admits a job and blocks until its report is ready, admission is
// refused (ErrQueueFull, ErrServerClosed), or ctx ends. A nil ctx means
// context.Background(). It is exactly SubmitAsync — same unified options
// surface, at most one SubmitOptions — followed by Wait on the same
// context.
func (s *Server) Submit(ctx context.Context, job *dataflow.Job, opts ...SubmitOptions) (*Report, error) {
	tk, err := s.SubmitAsync(ctx, job, opts...)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
}

// Close stops admission and drains: already-admitted jobs run to
// completion, then the workers exit. Returns ctx.Err() if ctx ends before
// the drain finishes (the workers keep draining in the background). Safe to
// call more than once; a nil ctx means context.Background().
func (s *Server) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.gate.Lock()
	already := s.closed
	s.closed = true
	s.gate.Unlock()
	if !already {
		if s.scaler != nil {
			s.scaler.stopWait()
		}
		close(s.queue) // no Submit or scale-up can be mid-flight once the gate flipped
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// batch is an epoch worker's scaffolding, which every batch the worker runs
// runs in, one at a time: the wavePool, which drive resets at the start of
// each batch, and the batch's tickets and planned members, each bounded by
// MaxBatch. It lives as long as its worker, so a job served alone costs no
// pool or slice of its own.
type batch struct {
	pool    *wavePool
	tickets []*jobTicket
	members []member
}

// newBatch builds a worker's batch scaffolding.
func (s *Server) newBatch() *batch {
	return &batch{
		pool:    newWavePool(s.rt.workers),
		tickets: make([]*jobTicket, 0, s.maxBatch),
		members: make([]member, 0, s.maxBatch),
	}
}

// clear lets go of a finished batch: the tickets were delivered and the
// members' runs settled, and neither may stay reachable from a worker that
// idles until its next batch — a ticket holds its report, a run its tables.
func (b *batch) clear() {
	clear(b.tickets)
	clear(b.members)
	b.tickets, b.members = b.tickets[:0], b.members[:0]
}

// worker serves batches until the queue is closed and drained, or the
// auto-scaler hands it a scale-down token.
func (s *Server) worker() {
	defer s.wg.Done()
	b := s.newBatch()
	for {
		select {
		case t, ok := <-s.queue:
			if !ok {
				return
			}
			s.collect(b, t)
			s.runBatch(b)
			b.clear()
		case <-s.shrink: // nil without a scaler: never ready
			return
		}
	}
}

// collect folds queued jobs behind first into b's tickets, up to MaxBatch —
// the batch shares one worker pool. The fold is opportunistic: the worker
// takes whatever is already queued and launches at once.
//
// Tickets whose context ended while queued are finished here and never
// occupy a batch slot: a dead job must not displace a live one from the
// batch. The batch may come back empty (every candidate was dead); runBatch
// no-ops on it.
func (s *Server) collect(b *batch, first *jobTicket) {
	b.tickets = s.appendLive(b.tickets, first)
	for len(b.tickets) < s.maxBatch {
		select {
		case t, ok := <-s.queue:
			if !ok {
				return
			}
			b.tickets = s.appendLive(b.tickets, t)
		default:
			return
		}
	}
}

// appendLive folds a dequeued ticket into the batch, unless its context
// already ended — then the outcome is delivered immediately and the batch
// is returned unchanged (the canceled-while-queued drop, counted under
// server_canceled).
func (s *Server) appendLive(batch []*jobTicket, t *jobTicket) []*jobTicket {
	if err := t.ctx.Err(); err != nil {
		s.noteQueueWait(time.Since(t.enqueued))
		s.rt.tel.Add(telemetry.LayerRuntime, "server_canceled", 1)
		t.deliver(nil, err)
		return batch
	}
	return append(batch, t)
}

// noteQueueWait records one observed queue wait — into the shared telemetry
// histogram and, when auto-scaling, the controller's sliding window.
func (s *Server) noteQueueWait(d time.Duration) {
	s.queueWait.Observe(d)
	if s.scaler != nil {
		s.scaler.note(d)
	}
}

// runBatch plans the batch b collected and drives it. Members get private core
// clocks and are planned against an idle machine, so each member's
// virtual-time report is byte-identical to running the job alone at any pool
// size; mates contend only for wall-clock resources (the shared worker pool,
// the allocator, the checkpoint store). Failures and cancellations are
// isolated per job: the failing run's regions are released and only its
// submitter sees the error.
func (s *Server) runBatch(b *batch) {
	rt := s.rt
	dequeued := time.Now()

	// Queue-wait accounting; jobs whose context ended between collect and
	// here (collect already dropped those dead while queued) are finished
	// without ever executing.
	admitted := b.tickets[:0]
	for _, t := range b.tickets {
		s.noteQueueWait(dequeued.Sub(t.enqueued))
		if err := t.ctx.Err(); err != nil {
			rt.tel.Add(telemetry.LayerRuntime, "server_canceled", 1)
			t.deliver(nil, err)
			continue
		}
		admitted = append(admitted, t)
	}
	if len(admitted) == 0 {
		return
	}
	s.epochs.Add(1)

	// Plan every member; a scheduling failure only fails its own job.
	planned := admitted[:0] // planned[i] is b.members[i]'s ticket
	for _, t := range admitted {
		// SLO admission already planned the job against an idle machine —
		// the plan the job would get alone, which is what makes served
		// reports identical to solo runs — so reuse it rather than paying
		// HEFT twice per submission.
		schedule := t.plan
		if schedule == nil {
			var err error
			if schedule, err = rt.sched.Schedule(t.job, rt.topo); err != nil {
				s.fail(t, fmt.Errorf("core: scheduling %s: %w", t.job.Name(), err))
				continue
			}
		}
		g, err := t.job.Graph()
		if err != nil {
			s.fail(t, err)
			continue
		}
		// The submission ID namespaces the job's owners, so identical jobs
		// share the batch without region-owner collisions.
		b.members = append(b.members, member{
			r:   rt.newRun(t.job, g, schedule, t.id, nil),
			ctx: t.ctx, resume: t.resume,
		})
		planned = append(planned, t)
	}
	if len(b.members) == 0 {
		return
	}
	rt.drive(b.pool, s.rec, b.members, func(i int, o outcome) {
		t := planned[i]
		switch {
		case o.canceled:
			rt.tel.Add(telemetry.LayerRuntime, "server_canceled", 1)
			t.deliver(nil, o.err)
		case o.err != nil:
			s.fail(t, o.err)
		default:
			s.complete(t, o.rep, len(planned), i)
		}
	})
}

// fail delivers an error outcome.
func (s *Server) fail(t *jobTicket, err error) {
	s.rt.tel.Add(telemetry.LayerRuntime, "server_failed", 1)
	t.deliver(nil, err)
}

// complete stamps a finished job's report with what the serving side knows —
// its batch, its admission verdict, its shard — and delivers it. Recovered
// jobs are distinguished in spans and counters so replayed work is visible in
// the serving profile: one that needed a retry, and one that restored tasks
// on its first local attempt — a failover re-submission
// (SubmitOptions.ResumeID) replaying what a dead shard checkpointed.
func (s *Server) complete(t *jobTicket, rep *Report, batchSize, batchIndex int) {
	rep.BatchSize, rep.BatchIndex = batchSize, batchIndex
	rep.SLODeadline, rep.SLOWait, rep.SLOPredicted = t.deadline, t.slowait, t.predicted
	rep.BestEffort = t.bestEffort
	rep.Shard = t.shard
	span := "serve"
	if rep.Attempts > 1 || rep.SkippedTasks > 0 {
		span = "serve-recovered"
		s.rt.tel.Add(telemetry.LayerRuntime, "server_recovered", 1)
	}
	s.completed.Add(1)
	s.rt.tel.Record(telemetry.Span{
		Layer: telemetry.LayerRuntime, Job: t.job.Name(),
		Name: span, Start: 0, End: rep.Makespan,
	})
	t.deliver(rep, nil)
}
