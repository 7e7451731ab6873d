package core

// This file implements core.Server — the concurrent job-submission engine
// the paper's deployment story implies (§2.1: "dataflow systems that serve
// thousands of jobs in parallel") — past its front door, which is
// admission.go's. Epoch workers batch whatever is queued and overlap the
// whole batch on one bounded worker pool: every member's ready tasks compete
// for the shared slots in deterministic (rank, submission) order, while each
// member's virtual time stays byte-identical to running the job alone. A
// submission's context is honored while queued and between tasks; with
// ServerConfig.Recovery a failed job is retried inside its batch, its
// checkpointed tasks restored (challenge 8(3)). Each submission gets its own
// owner namespace, so tenants may submit same-named jobs concurrently. The
// server batches, plans and stamps reports; executing a batch — retries
// included — is the engine's drive loop (exec.go), as for a solo Runtime.Run.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/region"
	"repro/internal/telemetry"
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
// Every dequeued ticket's queue wait is observed here, once. Tickets whose
// context ended while queued are finished here and never occupy a batch slot:
// a dead job must not displace a live one from the batch. The batch may come
// back empty (every candidate was dead); runBatch no-ops on it.
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

// appendLive observes a dequeued ticket's queue wait and folds it into the
// batch, unless its context already ended — then the outcome is delivered
// immediately and the batch is returned unchanged (the canceled-while-queued
// drop, counted under server_canceled).
func (s *Server) appendLive(batch []*jobTicket, t *jobTicket) []*jobTicket {
	d := time.Since(t.enqueued)
	s.queueWait.Observe(d)
	if s.scaler != nil {
		s.scaler.note(d)
	}
	if err := t.ctx.Err(); err != nil {
		s.cancel(t, err)
		return batch
	}
	return append(batch, t)
}

// cancel delivers the outcome of a job whose submitter gave up.
func (s *Server) cancel(t *jobTicket, err error) {
	s.rt.tel.Add(telemetry.LayerRuntime, "server_canceled", 1)
	t.deliver(nil, err)
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
	// A job whose context ended since collect is finished before planning: a
	// dead job must not pay for a plan.
	admitted := b.tickets[:0]
	for _, t := range b.tickets {
		if err := t.ctx.Err(); err != nil {
			s.cancel(t, err)
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
		// The plan the job would get alone, which is what makes served
		// reports identical to solo runs: SLO admission, a shard router or
		// an earlier submission of the job may have made it already.
		p, err := rt.Plan(t.job)
		if err != nil {
			s.fail(t, fmt.Errorf("core: scheduling %s: %w", t.job.Name(), err))
			continue
		}
		g, err := t.job.Graph()
		if err != nil {
			s.fail(t, err)
			continue
		}
		// The submission ID namespaces the job's owners, so identical jobs
		// share the batch without region-owner collisions.
		b.members = append(b.members, member{
			r:   rt.newRun(t.job, g, &p.Schedule, t.id, nil),
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
			s.cancel(t, o.err)
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
