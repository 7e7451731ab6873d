package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// chainEvents synthesizes n keyed events with no payload — the chain specs
// below exercise the engine, not the window bodies.
func chainEvents(n int) []stream.Event {
	events := make([]stream.Event, n)
	for i := range events {
		events[i] = stream.Event{Key: uint64(i)}
	}
	return events
}

// chainSpec declares a three-task ETL chain per window. hook, when
// non-nil, runs inside each task body (the crash tests gate on it);
// nil keeps the declarative nil-body fast path.
func chainSpec(name string, src stream.Source, windowSize, inflight int, hook func(w stream.Window, task string) error) stream.Spec {
	body := func(w stream.Window, task string) dataflow.Fn {
		if hook == nil {
			return nil
		}
		return func(dataflow.Ctx) error { return hook(w, task) }
	}
	return stream.Spec{
		Name: name, Source: src, WindowSize: windowSize, MaxInFlight: inflight,
		Build: func(w stream.Window, j *dataflow.Job) error {
			a := j.Task("extract", dataflow.Props{Ops: 1e5, OutputBytes: 1 << 12}, body(w, "extract"))
			b := j.Task("transform", dataflow.Props{Ops: 2e5, OutputBytes: 1 << 10}, body(w, "transform"))
			c := j.Task("load", dataflow.Props{Ops: 1e5}, body(w, "load"))
			a.Then(b)
			b.Then(c)
			return nil
		},
	}
}

// collectStream submits the spec and drains it, returning the per-window
// reports in retirement order.
func collectStream(t *testing.T, s *Server, spec stream.Spec, opts ...SubmitOptions) ([]*Report, *StreamTicket) {
	t.Helper()
	tk, err := s.SubmitStream(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Report
	for rep := range tk.Reports() {
		reps = append(reps, rep)
	}
	<-tk.Done()
	if err := tk.Err(); err != nil {
		t.Fatal(err)
	}
	return reps, tk
}

// TestStreamReportsMatchSoloAcrossWorkers pins the tentpole's determinism
// contract: every window report a served stream retires is byte-identical
// to running that window alone on a fresh single-worker runtime — at any
// EpochWorkers, with key-partitioned window graphs, with other windows of
// the same stream overlapped in the same epochs.
func TestStreamReportsMatchSoloAcrossWorkers(t *testing.T) {
	cfg := workload.StreamConfig{Windows: 4, WindowSize: 16, EventSize: 32, Keys: 8, Partitions: 2, MaxInFlight: 2}

	// Solo baseline: each window instantiated and run by itself.
	events := workload.StreamEvents(cfg)
	spec := workload.Stream(cfg)
	var want []string
	for w := 0; w < cfg.Windows; w++ {
		job, err := spec.Instantiate(w, events[w*cfg.WindowSize:(w+1)*cfg.WindowSize])
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(ExecConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep.String())
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		s := newTestServer(t, ServerConfig{EpochWorkers: workers, MaxBatch: 4, Block: true})
		reps, tk := collectStream(t, s, workload.Stream(cfg))
		if len(reps) != cfg.Windows {
			t.Fatalf("EpochWorkers=%d retired %d windows, want %d", workers, len(reps), cfg.Windows)
		}
		var wm time.Duration
		for i, rep := range reps {
			if got := rep.String(); got != want[i] {
				t.Errorf("EpochWorkers=%d window %d diverges from solo single-worker run:\n--- solo ---\n%s--- served ---\n%s", workers, i, want[i], got)
			}
			wm += rep.Makespan
		}
		if tk.Watermark() != wm {
			t.Errorf("EpochWorkers=%d watermark %v != sum of retired makespans %v", workers, tk.Watermark(), wm)
		}
	}
}

// TestStreamShapeChangesMatchSolo: a window graph with one aggregate per
// non-empty key partition changes shape whenever a window leaves a partition
// empty or fills it again. The driver builds each window along the window
// before it, so here some windows pass the shape check and some fall back;
// either way every report equals the window's solo run.
func TestStreamShapeChangesMatchSolo(t *testing.T) {
	const partitions, windowSize = 3, 4
	// Per window, the partitions its keys fill: all, {0}, {1,2}, all, all,
	// {0}, {0}.
	keys := []uint64{0, 1, 2, 0, 0, 3, 6, 0, 1, 4, 2, 5, 2, 1, 0, 3, 5, 4, 3, 0, 3, 3, 0, 6, 0, 0, 3, 0}
	events := make([]stream.Event, len(keys))
	for i, k := range keys {
		events[i] = stream.Event{Key: k, Payload: make([]byte, 1+i%3)}
	}
	fan := func(src stream.Source) stream.Spec {
		return stream.Spec{
			Name: "fan", Source: src, WindowSize: windowSize, MaxInFlight: 2,
			Build: func(w stream.Window, j *dataflow.Job) error {
				ingest := j.Task("ingest", dataflow.Props{Ops: 1e3, OutputBytes: w.Bytes() + 1}, nil)
				emit := j.Task("emit", dataflow.Props{Ops: 1e3}, nil)
				for i, part := range w.Partition(partitions) {
					if len(part) == 0 {
						continue
					}
					agg := j.Task(fmt.Sprintf("agg%02d", i), dataflow.Props{Ops: float64(len(part)) * 1e3, OutputBytes: 8}, nil)
					ingest.Then(agg)
					agg.Then(emit)
				}
				return nil
			},
		}
	}
	var want []string
	for w := 0; w*windowSize < len(events); w++ {
		job, err := fan(nil).Instantiate(w, events[w*windowSize:(w+1)*windowSize])
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(ExecConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep.String())
	}
	s := newTestServer(t, ServerConfig{EpochWorkers: 2, MaxBatch: 4, Block: true})
	reps, _ := collectStream(t, s, fan(stream.NewSliceSource(events)))
	if len(reps) != len(want) {
		t.Fatalf("retired %d windows, want %d", len(reps), len(want))
	}
	for i, rep := range reps {
		if got := rep.String(); got != want[i] {
			t.Errorf("window %d diverges from its solo run:\n--- solo ---\n%s--- served ---\n%s", i, want[i], got)
		}
	}
}

// TestStreamBackpressureBoundsSource pins deterministic backpressure: with
// MaxInFlight=1 and no consumer, the driver may hold at most the in-flight
// window, the report buffer, and one retirement in the delivery select —
// so an unbounded source is pulled O(in-flight) windows ahead of the
// consumer, never further.
func TestStreamBackpressureBoundsSource(t *testing.T) {
	const windowSize = 8
	var pulled atomic.Int64
	src := stream.SourceFunc(func() (stream.Event, bool) {
		n := pulled.Add(1)
		// consumed(2) + buffer(1) + in-flight(1) + the retirement parked in
		// the delivery select (1), plus one window of slack: anything past
		// this means the in-flight cap is not holding the source back.
		if n > 6*windowSize {
			t.Errorf("unbounded source pulled %d events with only 2 windows consumed", n)
			return stream.Event{}, false
		}
		return stream.Event{Key: uint64(n)}, true
	})
	s := newTestServer(t, ServerConfig{EpochWorkers: 2, MaxBatch: 4, Block: true})
	tk, err := s.SubmitStream(context.Background(), chainSpec("firehose", src, windowSize, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-tk.Reports()
	<-tk.Reports()
	// Drain: the source stops being pulled, in-flight windows retire.
	done := make(chan struct{})
	var late int
	go func() {
		defer close(done)
		for range tk.Reports() {
			late++
		}
	}()
	if err := tk.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if tk.Windows() != 2+late {
		t.Errorf("ticket counts %d windows, consumed %d", tk.Windows(), 2+late)
	}
	if got := pulled.Load(); got > 6*windowSize {
		t.Errorf("source pulled %d events total", got)
	}
}

// TestStreamCancelMidWindowDrains pins cancel: the reports channel closes
// promptly, the terminal error is ErrStreamCanceled, in-flight windows are
// awaited (no leaked submissions), and the server keeps serving.
func TestStreamCancelMidWindowDrains(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 2, MaxBatch: 4, Block: true})
	spec := chainSpec("cancelme", stream.NewSliceSource(chainEvents(8*8)), 8, 2, nil)
	tk, err := s.SubmitStream(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-tk.Reports()
	tk.Cancel()
	for range tk.Reports() { //nolint:revive // draining until close
	}
	<-tk.Done()
	if !errors.Is(tk.Err(), ErrStreamCanceled) {
		t.Errorf("Err = %v, want ErrStreamCanceled", tk.Err())
	}
	if tk.Windows() < 1 || tk.Windows() >= 8 {
		t.Errorf("canceled stream retired %d of 8 windows", tk.Windows())
	}
	// The engine is not wedged: an ordinary submission still serves.
	if _, err := s.Submit(context.Background(), pipelineJob("after-cancel")); err != nil {
		t.Fatalf("server wedged after stream cancel: %v", err)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_streams"); got != 1 {
		t.Errorf("server_streams = %d, want 1", got)
	}
}

// TestSubmitStreamValidation pins the submission-surface errors.
func TestSubmitStreamValidation(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1})
	ctx := context.Background()
	if _, err := s.SubmitStream(ctx, stream.Spec{}); err == nil {
		t.Error("invalid spec must be rejected")
	}
	ok := func() stream.Spec { return chainSpec("ok", stream.NewSliceSource(chainEvents(8)), 8, 1, nil) }
	if _, err := s.SubmitStream(ctx, ok(), SubmitOptions{}, SubmitOptions{}); err == nil {
		t.Error("more than one SubmitOptions must be rejected")
	}
	if _, err := s.SubmitStream(ctx, ok(), SubmitOptions{ResumeID: "orphan"}); err == nil {
		t.Error("ResumeID without ServerConfig.Recovery must be rejected")
	}
	reps, _ := collectStream(t, s, ok())
	if len(reps) != 1 {
		t.Fatalf("retired %d windows, want 1", len(reps))
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitStream(ctx, ok()); !errors.Is(err, ErrServerClosed) {
		t.Errorf("submit after close = %v, want ErrServerClosed", err)
	}
}

// crashResume runs the deterministic crash/resume protocol at the given
// EpochWorkers: window 2's transform task gates until window 2's extract
// has checkpointed, the stream is canceled while transform blocks (the
// simulated crash — cancellation is observed at the next task boundary, so
// "load" never runs), and the same spec is resubmitted with the crashed
// ticket's ResumeID. Because the gate fixes the crashed run's checkpoint
// state exactly — markers for w0 and w1, snapshots for w2's extract and
// transform — the resumed run is identical at any pool size.
func crashResume(t *testing.T, workers int) (crashed, resumed *StreamTicket, resumedReps []*Report) {
	t.Helper()
	s, err := NewServer(ServerConfig{
		EpochWorkers: workers, MaxBatch: 4, Block: true,
		Recovery: &RecoveryPolicy{MaxAttempts: 3, PartialReplay: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck

	gate := make(chan struct{})
	reached := make(chan struct{})
	var once sync.Once
	hook := func(w stream.Window, task string) error {
		if w.Index == 2 && task == "transform" {
			once.Do(func() { close(reached) })
			<-gate
		}
		return nil
	}
	const windows, windowSize = 5, 8
	tk, err := s.SubmitStream(context.Background(),
		chainSpec("crashy", stream.NewSliceSource(chainEvents(windows*windowSize)), windowSize, 2, hook))
	if err != nil {
		t.Fatal(err)
	}
	<-tk.Reports() // w0
	<-tk.Reports() // w1
	<-reached      // w2: extract checkpointed, transform parked on the gate
	tk.Cancel()    // the crash: markers and window snapshots survive
	close(gate)
	for range tk.Reports() { //nolint:revive // draining until close
	}
	<-tk.Done()
	if !errors.Is(tk.Err(), ErrStreamCanceled) {
		t.Fatalf("crashed stream Err = %v, want ErrStreamCanceled", tk.Err())
	}
	if tk.Windows() != 2 {
		t.Fatalf("crashed stream retired %d windows, want 2", tk.Windows())
	}
	// What the crash keeps is exactly what a resume reads: two markers and the
	// resume point's two snapshots. Window 3 was in flight too; how far it
	// got is wall-clock accident, and its snapshots went with the crash.
	if got := s.Checkpointer().Snapshots(); got != 4 {
		t.Errorf("crashed stream keeps %d snapshots, want 4 (markers w0, w1; w2's extract, transform)", got)
	}

	rtk, err := s.SubmitStream(context.Background(),
		chainSpec("crashy", stream.NewSliceSource(chainEvents(windows*windowSize)), windowSize, 2, nil),
		SubmitOptions{ResumeID: tk.ResumeID()})
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Report
	for rep := range rtk.Reports() {
		reps = append(reps, rep)
	}
	<-rtk.Done()
	if err := rtk.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.Checkpointer().Snapshots(); got != 0 {
		t.Errorf("drained stream leaves %d snapshots, want 0", got)
	}
	return tk, rtk, reps
}

// TestStreamCrashResume pins mid-stream crash recovery: the resume skips
// the two marker-completed windows, partial-replays the interrupted window
// (SkippedTasks > 0), re-runs the rest from scratch, and reconstructs the
// watermark as markers + resumed makespans.
func TestStreamCrashResume(t *testing.T) {
	crashed, resumed, reps := crashResume(t, 2)
	if resumed.SkippedWindows() != 2 {
		t.Errorf("resume skipped %d windows, want 2", resumed.SkippedWindows())
	}
	if got := resumed.SkippedWindows() + resumed.Windows(); got != 5 {
		t.Errorf("resume accounts for %d windows, want 5", got)
	}
	if len(reps) != 3 {
		t.Fatalf("resume retired %d windows, want 3", len(reps))
	}
	// w2 replays its checkpointed prefix: extract and transform completed
	// before the crash, so exactly those two restore.
	if reps[0].SkippedTasks != 2 {
		t.Errorf("resumed window SkippedTasks = %d, want 2 (extract, transform)", reps[0].SkippedTasks)
	}
	for i, rep := range reps[1:] {
		if rep.SkippedTasks != 0 {
			t.Errorf("post-crash window %d SkippedTasks = %d, want 0", i+3, rep.SkippedTasks)
		}
	}
	// Watermark arithmetic: the crashed ticket's watermark came from live
	// retirements, the resumed ticket rebuilt the same prefix from markers.
	wm := crashed.Watermark()
	for _, rep := range reps {
		wm += rep.Makespan
	}
	if resumed.Watermark() != wm {
		t.Errorf("resumed watermark %v != markers + resumed makespans %v", resumed.Watermark(), wm)
	}

	// Post-crash-point windows are byte-identical to an uninterrupted
	// stream on an identical serving stack (same recovery pricing).
	base, err := NewServer(ServerConfig{
		EpochWorkers: 2, MaxBatch: 4, Block: true,
		Recovery: &RecoveryPolicy{MaxAttempts: 3, PartialReplay: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close(context.Background()) }) //nolint:errcheck
	baseReps, _ := collectStream(t, base,
		chainSpec("crashy", stream.NewSliceSource(chainEvents(5*8)), 8, 2, nil))
	if len(baseReps) != 5 {
		t.Fatalf("baseline retired %d windows, want 5", len(baseReps))
	}
	for i := 3; i < 5; i++ {
		if got, want := reps[i-2].String(), baseReps[i].String(); got != want {
			t.Errorf("post-crash window %d diverges from uninterrupted stream:\n--- uninterrupted ---\n%s--- resumed ---\n%s", i, want, got)
		}
	}
}

// TestStreamCrashResumeDeterministicAcrossWorkers re-runs the identical
// crash/resume protocol at EpochWorkers 1 and 4: because the gate fixes
// the crashed state, every resumed report must be byte-identical between
// the two pool sizes — recovery composes with the determinism contract.
func TestStreamCrashResumeDeterministicAcrossWorkers(t *testing.T) {
	_, r1, reps1 := crashResume(t, 1)
	_, r4, reps4 := crashResume(t, 4)
	if r1.SkippedWindows() != r4.SkippedWindows() || r1.Windows() != r4.Windows() {
		t.Fatalf("resume shape diverges: %d+%d windows at 1 worker, %d+%d at 4",
			r1.SkippedWindows(), r1.Windows(), r4.SkippedWindows(), r4.Windows())
	}
	if r1.Watermark() != r4.Watermark() {
		t.Errorf("resumed watermark %v at 1 worker != %v at 4", r1.Watermark(), r4.Watermark())
	}
	for i := range reps1 {
		if got, want := reps4[i].String(), reps1[i].String(); got != want {
			t.Errorf("resumed window %d diverges across pool sizes:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", i, want, got)
		}
	}
}
