package core

// This file is a Server's front door: the tickets it hands out, the one
// admission path every submission takes — validation, SLO pricing, the
// bounded queue and its backpressure — and Close, which stops admission and
// drains. What the epoch workers do with an admitted ticket is server.go's.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dataflow"
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
	// SLO admission state (zero without ServerConfig.SLO): the deadline
	// judged against and the model's predicted sojourn. Whether the job was
	// down-tiered to best-effort is the Ticket's bestEffort.
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
// holds the report and not the job and its context with it.
func (t *jobTicket) deliver(rep *Report, err error) {
	t.job, t.ctx, t.resume = nil, nil, ""
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
		p, err := s.rt.Plan(job)
		if err != nil {
			return nil, err
		}
		wait, predicted, tier, c := s.slo.admit(opt, p.Estimate.Makespan)
		if tier == tierRejected {
			s.rt.tel.Add(telemetry.LayerRuntime, "server_slo_rejected", 1)
			return nil, fmt.Errorf("%w: predicted %v, deadline %v", ErrDeadline, predicted, opt.Deadline)
		}
		charged, charge = true, c
		t.slowait, t.predicted = wait, predicted
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
