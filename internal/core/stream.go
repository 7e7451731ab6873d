package core

// Streaming dataflows as a served scenario (Server.SubmitStream): an
// unbounded stream.Source feeds incremental re-execution window by window.
// Each window is a bounded sub-DAG stamped from the spec's template and
// submitted through the ordinary serving path — pre-admitted, overlapped
// inside serving epochs with the rest of the traffic — so every per-window
// report inherits the engine's core guarantee: byte-identical to running
// that window alone, at any EpochWorkers.
//
// The driver pulls WindowSize events, instantiates the window job, and
// keeps at most MaxInFlight windows submitted; the source is not pulled
// while the stream sits at the bound, which is the whole backpressure
// story — deterministic, because it is a pure function of window
// completion order, and windows retire strictly oldest-first.
//
// Watermarks advance in virtual time: when window w retires, the stream's
// watermark grows by w's virtual makespan, so the watermark is the virtual
// time a single-worker replay of the retired prefix would have consumed —
// a pure function of the event stream, independent of wall-clock speed or
// pool size.
//
// Fault tolerance composes with the existing Checkpointer. Window tasks
// checkpoint under the per-window namespace "<stream>/w%06d" (forgotten at
// window completion, like any served job), and each retirement writes a
// marker snapshot "__window__%06d" under the stream's own namespace
// carrying the window's makespan. A crashed stream — its context canceled
// mid-window — keeps what a resume needs: the oldest unretired window's
// partial task snapshots survive because windows carry an external ResumeID
// (the same rule that preserves a dead shard's checkpoints for failover),
// and markers live under the stream namespace, which only a terminal
// outcome forgets. Resuming (SubmitStream with opts.ResumeID = the crashed
// ticket's ResumeID) scans the markers, rebuilds the watermark from their
// recorded makespans, skips the completed windows without re-delivering
// their reports, and re-runs the first incomplete window with its
// checkpointed prefix restored — its report shows SkippedTasks > 0. The
// prefix is restored under either replay mode; RecoveryPolicy.PartialReplay
// only makes the restore lazy, fetching an output from the store only when
// a re-executed task receives it. Windows after the resume point are
// re-run from scratch (the crashed run dropped their partial state as it
// ended), keeping the resumed run a deterministic function of the marker
// high-water mark alone.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// ErrStreamCanceled is the terminal error of a stream whose context was
// canceled (StreamTicket.Cancel or the submission context ending).
var ErrStreamCanceled = errors.New("core: stream canceled")

// StreamTicket is a live streaming submission: per-window reports arrive
// in window order on Reports, the watermark advances as windows retire,
// and the stream ends when the source drains (or Drain is called), the
// context is canceled, or a window fails terminally.
type StreamTicket struct {
	id      string
	reports chan *Report
	cancel  context.CancelFunc
	done    chan struct{}
	drain   chan struct{}

	cancelOnce sync.Once
	drainOnce  sync.Once

	mu        sync.Mutex
	watermark time.Duration
	windows   int
	skipped   int
	err       error
}

// ResumeID is the stream's checkpoint namespace. After a crash (Cancel or
// context cancellation), submitting the same spec with
// SubmitOptions{ResumeID: t.ResumeID()} resumes from the last completed
// window. Empty when the server runs without ServerConfig.Recovery.
func (t *StreamTicket) ResumeID() string { return t.id }

// Reports yields the retired windows' reports in window order. The
// channel is closed when the stream ends; consumers must drain it — a
// stream whose reports are not consumed stops retiring windows once the
// channel's buffer (the in-flight bound) fills, which stalls the source.
func (t *StreamTicket) Reports() <-chan *Report { return t.reports }

// Watermark is the stream's virtual-time high-water mark: the sum of all
// retired windows' virtual makespans, including windows skipped by a
// resume (their recorded makespans are replayed from the retirement
// markers).
func (t *StreamTicket) Watermark() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watermark
}

// Windows is the number of windows retired by this run (excluding windows
// a resume skipped).
func (t *StreamTicket) Windows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.windows
}

// SkippedWindows is the number of completed windows a resume skipped from
// their retirement markers instead of re-executing.
func (t *StreamTicket) SkippedWindows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.skipped
}

// Done is closed when the stream has ended and Err is final.
func (t *StreamTicket) Done() <-chan struct{} { return t.done }

// Err returns the stream's terminal error: nil after a clean drain,
// ErrStreamCanceled (wrapping the context cause) after a cancel, or the
// first window's terminal failure. Valid once Done is closed.
func (t *StreamTicket) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Cancel stops the stream without waiting: in-flight windows are canceled
// at their next task boundary. It is the simulated crash — checkpointed
// window state and retirement markers are kept so a later SubmitStream
// with this ticket's ResumeID resumes from the last completed window.
func (t *StreamTicket) Cancel() { t.cancelOnce.Do(t.cancel) }

// Drain stops pulling the source, lets the in-flight windows retire, and
// waits for the stream to end (or ctx). The reports channel must still be
// consumed while draining. A nil ctx means context.Background().
func (t *StreamTicket) Drain(ctx context.Context) error {
	t.drainOnce.Do(func() { close(t.drain) })
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-t.done:
		return t.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// draining reports whether Drain was requested.
func (t *StreamTicket) draining() bool {
	select {
	case <-t.drain:
		return true
	default:
		return false
	}
}

// setErr records the terminal error (first writer wins).
func (t *StreamTicket) setErr(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// streamWindowNS is the checkpoint namespace of one window's task
// snapshots: "<stream>/w%06d". It and the stream's own namespace, which
// holds the retirement markers, are two namespaces like any two: forgetting
// one (a window's at its completion, the ordinary served-job GC) never
// touches the other, and the stream driver forgets both kinds when it ends.
func streamWindowNS(streamID string, idx int) string {
	return fmt.Sprintf("%s/w%06d", streamID, idx)
}

// streamMarker is the retirement-marker task name of window idx under the
// stream namespace.
func streamMarker(idx int) string { return fmt.Sprintf("__window__%06d", idx) }

// SubmitStream admits a streaming dataflow: the spec's source is cut into
// windows, each window instantiated from the spec's template and executed
// on the serving pool, with at most spec.MaxInFlight windows in flight
// and reports retired strictly in window order. Accepts at most one
// SubmitOptions, sharing the unified submission surface with
// Submit/SubmitAsync: Shard labels the windows' reports, and ResumeID
// resumes a crashed stream from its last completed window (requires
// ServerConfig.Recovery). Streams bypass the SLO admission model — their
// windows are submitted pre-admitted, since an unbounded source has no
// finite makespan estimate to admit against.
//
// The stream runs until the source drains, Drain or Cancel is called, the
// submission context ends, or a window fails terminally (after the
// recovery policy's retries, when configured). Close the server only
// after the stream ends; a mid-stream Close fails the stream's next
// window submission with ErrServerClosed.
func (s *Server) SubmitStream(ctx context.Context, spec stream.Spec, opts ...SubmitOptions) (*StreamTicket, error) {
	opt, err := ResolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.ResumeID != "" && s.rec == nil {
		return nil, errors.New("core: stream ResumeID requires ServerConfig.Recovery")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.gate.RLock()
	closed := s.closed
	s.gate.RUnlock()
	if closed {
		return nil, ErrServerClosed
	}

	id := opt.ResumeID
	if id == "" && s.rec != nil {
		id = s.rec.ck.NewRunID(spec.Name)
	}
	cctx, cancel := context.WithCancel(ctx)
	t := &StreamTicket{
		id:      id,
		reports: make(chan *Report, spec.InFlight()),
		cancel:  cancel,
		done:    make(chan struct{}),
		drain:   make(chan struct{}),
	}
	s.rt.tel.Add(telemetry.LayerRuntime, "server_streams", 1)
	go s.streamDriver(cctx, spec, opt, t, opt.ResumeID != "")
	return t, nil
}

// streamDriver is the stream's pump: resume scan, window submission with
// the in-flight bound, in-order retirement, watermark and marker
// bookkeeping, and terminal cleanup.
func (s *Server) streamDriver(ctx context.Context, spec stream.Spec, opt SubmitOptions, t *StreamTicket, resumed bool) {
	defer close(t.done)
	defer close(t.reports)
	defer t.cancel()

	next, ok := s.streamResumeScan(spec, t, resumed)
	if !ok {
		return
	}

	type inflight struct {
		idx int
		tk  *Ticket
	}
	var q []inflight
	maxInFlight := spec.InFlight()
	windows := spec.Windows()
	eof := false

	// terminate cancels and awaits the in-flight windows, then settles the
	// stream's namespaces. A cancel (the simulated crash) keeps the markers
	// and the oldest unretired window's snapshots — the resume point, which a
	// resume replays — and drops the younger windows': how far they got is
	// wall-clock accident, and a resumed run must be a function of the marker
	// high-water mark alone. Any terminal outcome (clean drain or failure)
	// forgets everything, the resume point of a crashed predecessor included
	// should this run never have reached it.
	terminate := func(err error) {
		t.setErr(err)
		t.cancel()
		for _, f := range q {
			f.tk.Wait(nil) //nolint:errcheck // the server always delivers
		}
		if s.rec == nil {
			return
		}
		drop := q
		if errors.Is(err, ErrStreamCanceled) {
			drop = q[min(1, len(q)):]
		} else {
			s.rec.ck.Forget(streamWindowNS(t.id, next))
			s.rec.ck.Forget(t.id)
		}
		for _, f := range drop {
			s.rec.ck.Forget(streamWindowNS(t.id, f.idx))
		}
	}

	// windowErr is the terminal error for a window that failed to submit or
	// to complete: once the stream's context has ended that is the cancel,
	// whatever the window itself reported (a cancel can land between the
	// fill loop's check and its SubmitAsync).
	windowErr := func(idx int, err error) error {
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %w", ErrStreamCanceled, context.Cause(ctx))
		}
		return fmt.Errorf("core: stream %s window %d: %w", spec.Name, idx, err)
	}

	for {
		// Fill the pipeline up to the in-flight bound. The source is only
		// pulled here — at the bound, or once draining, it stays untouched.
		for !eof && !t.draining() && ctx.Err() == nil && len(q) < maxInFlight {
			events, more := stream.Pull(spec.Source, spec.WindowSize)
			if !more {
				eof = true
			}
			if len(events) == 0 {
				break
			}
			job, err := windows.Instantiate(next, events)
			if err != nil {
				terminate(err)
				return
			}
			wopt := SubmitOptions{Shard: opt.Shard, Preadmitted: true}
			if s.rec != nil {
				wopt.ResumeID = streamWindowNS(t.id, next)
			}
			tk, err := s.SubmitAsync(ctx, job, wopt)
			if err != nil {
				terminate(windowErr(next, err))
				return
			}
			q = append(q, inflight{idx: next, tk: tk})
			next++
		}
		if len(q) == 0 {
			if ctx.Err() != nil && !eof && !t.draining() {
				terminate(fmt.Errorf("%w: %w", ErrStreamCanceled, context.Cause(ctx)))
				return
			}
			terminate(nil) // clean drain: source exhausted, everything retired
			return
		}

		// Retire the oldest window; younger in-flight mates keep executing.
		head := q[0]
		rep, err := head.tk.Wait(nil)
		if err != nil {
			terminate(windowErr(head.idx, err))
			return
		}
		q = q[1:]
		if s.rec != nil {
			// Retirement marker: window idx completed with this makespan.
			// Written before the report is delivered, so a crash between
			// the two re-runs the window (deterministically) rather than
			// losing it.
			payload := make([]byte, 8)
			binary.BigEndian.PutUint64(payload, uint64(rep.Makespan))
			if _, err := s.rec.ck.open(t.id).snapshot(streamMarker(head.idx), payload, true, false); err != nil {
				terminate(err)
				return
			}
		}
		t.mu.Lock()
		t.watermark += rep.Makespan
		t.windows++
		t.mu.Unlock()
		s.rt.tel.Add(telemetry.LayerRuntime, "server_stream_windows", 1)
		select {
		case t.reports <- rep:
		case <-ctx.Done():
			terminate(fmt.Errorf("%w: %w", ErrStreamCanceled, context.Cause(ctx)))
			return
		}
	}
}

// streamResumeScan walks the stream's retirement markers on a resume:
// every marked window is skipped — its recorded makespan advances the
// watermark, its report is not re-delivered — and the scan stops at the
// first unmarked window, the resume point. The skipped windows' events
// are pulled off the source and discarded so the resume point sees the
// same events it saw before the crash. Returns the resume point and
// whether the stream may proceed.
func (s *Server) streamResumeScan(spec stream.Spec, t *StreamTicket, resumed bool) (int, bool) {
	if !resumed || s.rec == nil {
		return 0, true
	}
	next := 0
	markers := s.rec.ck.open(t.id)
	for {
		if _, ok := markers.lookup(streamMarker(next)); !ok {
			break
		}
		data, _, err := markers.restore(streamMarker(next))
		if err != nil {
			t.setErr(err)
			return 0, false
		}
		if len(data) != 8 {
			t.setErr(fmt.Errorf("core: stream %s window %d: malformed retirement marker", spec.Name, next))
			return 0, false
		}
		makespan := time.Duration(binary.BigEndian.Uint64(data))
		s.rec.ck.putBuf(data)
		t.mu.Lock()
		t.watermark += makespan
		t.skipped++
		t.mu.Unlock()
		next++
	}
	for i := 0; i < next*spec.WindowSize; i++ {
		if _, ok := spec.Source.Next(); !ok {
			break
		}
	}
	if next > 0 {
		s.rt.tel.Add(telemetry.LayerRuntime, "server_stream_resumed", 1)
	}
	return next, true
}
