// Package stream defines long-running streaming dataflows as a served
// scenario: an unbounded event source is cut into bounded windows, and
// each window is instantiated from a job template (dataflow.Template) as
// a finite sub-DAG the serving engine executes like any other job.
//
// The package is pure structure — events, windows, and the window-graph
// template. Execution (watermarks, backpressure, per-window checkpoints,
// crash/resume) lives in internal/core (Server.SubmitStream): core
// imports stream, never the reverse, mirroring how dataflow stays free of
// the runtime dependency.
//
// The model is the paper's Table 3 streaming row made incremental: window
// tasks use the same typed regions (Private Scratch receive buffers,
// Global State worker liveness, Global Scratch rolling result caches),
// and because every window is an ordinary job, the engine's determinism
// guarantee carries over — a window's report is byte-identical to running
// that window alone, at any pool size.
package stream

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dataflow"
)

// Event is one element of a stream: an opaque payload plus the key the
// window graph may partition on.
type Event struct {
	// Key selects the partition for key-partitioned window graphs.
	Key uint64
	// Payload is the event bytes, owned by the consumer once pulled.
	Payload []byte
}

// Source produces the stream's events in order. Next returns the next
// event and true, or a zero Event and false once the stream is exhausted.
// Sources are pulled from a single goroutine (the stream driver) and are
// pulled only while the stream is below its in-flight window limit — a
// blocked pull is the backpressure signal.
type Source interface {
	Next() (Event, bool)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() (Event, bool)

// Next calls f.
func (f SourceFunc) Next() (Event, bool) { return f() }

// SliceSource replays a fixed event slice — the deterministic test and
// resume source. Fields are consumed in place; hand each stream run a
// fresh SliceSource.
type SliceSource struct {
	events []Event
}

// NewSliceSource builds a SliceSource over events (not copied).
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next pops the next event.
func (s *SliceSource) Next() (Event, bool) {
	if len(s.events) == 0 {
		return Event{}, false
	}
	ev := s.events[0]
	s.events = s.events[1:]
	return ev, true
}

// pullCap bounds the room Pull makes up front: a window of up to this many
// events is read into one exact slice, and a larger n allocates no more than
// this until the events are there.
const pullCap = 1024

// Pull reads up to n events from src. ok is false once the source is
// exhausted (the returned slice may still hold a final partial batch).
func Pull(src Source, n int) (events []Event, ok bool) {
	for i := 0; i < n; i++ {
		ev, more := src.Next()
		if !more {
			return events, false
		}
		if events == nil {
			events = make([]Event, 0, min(n, pullCap))
		}
		events = append(events, ev)
	}
	return events, true
}

// Window is one bounded slice of the stream, handed to the spec's Build
// callback when its sub-DAG is instantiated.
type Window struct {
	// Index is the window's position in the stream (0-based).
	Index int
	// Events are the window's events in arrival order; the final window of
	// a finite stream may hold fewer than Spec.WindowSize.
	Events []Event
}

// Bytes concatenates the window's payloads — the ingest task's staging
// size.
func (w Window) Bytes() int64 {
	var n int64
	for _, ev := range w.Events {
		n += int64(len(ev.Payload))
	}
	return n
}

// Spec declares a streaming dataflow: where events come from, how the
// stream is cut into windows, and the task graph each window instantiates.
// It is the streaming analogue of a dataflow.Job — submitted whole via
// Server.SubmitStream, which executes window instances on the serving
// pool and retires them in order.
type Spec struct {
	// Name prefixes every window job: window w runs as "<Name>/w%06d".
	// It must not contain a '%' (the window template is a format string).
	Name string
	// Source yields the stream's events. The driver owns it once the spec
	// is submitted.
	Source Source
	// WindowSize is the number of events per tumbling window (> 0). A
	// finite source's last window may be partial.
	WindowSize int
	// MaxInFlight bounds how many windows may be executing or awaiting
	// retirement at once (default 2). The source is not pulled while the
	// stream is at the bound — deterministic backpressure.
	MaxInFlight int
	// Build populates one window's task graph on the (already named) job.
	Build func(w Window, j *dataflow.Job) error
}

// Validate checks the spec is executable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return errors.New("stream: spec has no name")
	}
	if strings.ContainsRune(s.Name, '%') {
		return fmt.Errorf("stream: spec name %q must not contain %%", s.Name)
	}
	if s.Source == nil {
		return fmt.Errorf("stream: spec %q has no source", s.Name)
	}
	if s.WindowSize <= 0 {
		return fmt.Errorf("stream: spec %q window size %d", s.Name, s.WindowSize)
	}
	if s.Build == nil {
		return fmt.Errorf("stream: spec %q has no window builder", s.Name)
	}
	if s.MaxInFlight < 0 {
		return fmt.Errorf("stream: spec %q negative in-flight bound", s.Name)
	}
	return nil
}

// InFlight resolves the effective in-flight window bound.
func (s Spec) InFlight() int {
	if s.MaxInFlight <= 0 {
		return 2
	}
	return s.MaxInFlight
}

// Windows stamps a stream's window jobs from one dataflow.Template, so each
// window is built along the graph of the window before it (Template says
// what is checked before that graph is shared). The stream driver makes one
// per stream. A Windows is used from one goroutine at a time.
type Windows struct {
	tmpl   dataflow.Template
	events []Event // the window being built, for tmpl.Build
}

// Windows returns the spec's window stamper.
func (s Spec) Windows() *Windows {
	w := &Windows{}
	w.tmpl.Name = s.Name + "/w%06d"
	w.tmpl.Build = func(j *dataflow.Job, n int) error {
		return s.Build(Window{Index: n, Events: w.events}, j)
	}
	return w
}

// Instantiate builds window idx's sub-DAG over the given events. The
// resulting job is named "<Name>/w<idx>" and validated — ready to submit.
func (w *Windows) Instantiate(idx int, events []Event) (*dataflow.Job, error) {
	w.events = events
	j, err := w.tmpl.Instantiate(idx)
	w.events = nil
	return j, err
}

// Instantiate builds window idx's sub-DAG over the given events on a
// stamper of its own: one window, nothing shared with any other.
func (s Spec) Instantiate(idx int, events []Event) (*dataflow.Job, error) {
	return s.Windows().Instantiate(idx, events)
}
