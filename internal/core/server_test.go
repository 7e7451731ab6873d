package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// pipelineJob builds a small three-stage job; identical inputs always build
// structurally identical jobs, so isolated makespans must match exactly.
func pipelineJob(name string) *dataflow.Job {
	j := dataflow.NewJob(name)
	a := j.Task("ingest", dataflow.Props{Ops: 2e6, OutputBytes: 1 << 18}, nil)
	b := j.Task("filter", dataflow.Props{Ops: 4e6, OutputBytes: 1 << 16}, nil)
	c := j.Task("reduce", dataflow.Props{Ops: 1e6}, nil)
	a.Then(b)
	b.Then(c)
	return j
}

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
	return s
}

func TestServeSingleJobMatchesRun(t *testing.T) {
	// A batch of one through the Server is the same computation as Run on a
	// fresh runtime: same schedule, idle device queues, zero competing load.
	iso := newRuntime(t)
	want, err := iso.Run(pipelineJob("p"))
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1})
	got, err := s.Submit(context.Background(), pipelineJob("p"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Errorf("served makespan %v != Run makespan %v", got.Makespan, want.Makespan)
	}
	if len(got.Tasks) != len(want.Tasks) {
		t.Errorf("task count %d != %d", len(got.Tasks), len(want.Tasks))
	}
}

func TestServeRejectsInvalidSubmissions(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1})
	if _, err := s.Submit(context.Background(), nil); err == nil {
		t.Error("nil job must be rejected")
	}
	if _, err := s.Submit(context.Background(), dataflow.NewJob("empty")); err == nil {
		t.Error("empty job must be rejected")
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_admitted"); got != 0 {
		t.Errorf("invalid submissions counted as admitted: %d", got)
	}
}

// blockingJob returns a job whose first task parks on release, plus a
// channel that reports the task has started running. It lets tests hold a
// worker busy deterministically (task bodies run real Go code).
func blockingJob(name string, started chan<- struct{}, release <-chan struct{}) *dataflow.Job {
	j := dataflow.NewJob(name)
	j.Task("block", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		started <- struct{}{}
		<-release
		return nil
	})
	return j
}

func TestServeQueueFullRejects(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1, QueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), blockingJob("holder", started, release)); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-started // the single worker is now parked inside the holder's task

	// Fills the queue's only slot and waits behind the holder.
	queued, err := s.SubmitAsync(context.Background(), pipelineJob("queued"))
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := queued.Wait(context.Background()); err != nil {
			t.Errorf("queued: %v", err)
		}
	}()
	requireQueued(t, s, 1)

	if _, err := s.Submit(context.Background(), pipelineJob("overflow")); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_rejected"); got != 1 {
		t.Errorf("server_rejected = %d, want 1", got)
	}

	close(release)
	wg.Wait()
}

func TestServeBlockingBackpressure(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1, QueueDepth: 1, Block: true})
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), blockingJob("holder", started, release)); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-started

	queued, err := s.SubmitAsync(context.Background(), pipelineJob("queued"))
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := queued.Wait(context.Background()); err != nil {
			t.Errorf("queued: %v", err)
		}
	}()
	requireQueued(t, s, 1)

	// Queue full + Block: Submit parks until its context ends.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, pipelineJob("blocked"))
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("blocking Submit returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	close(release)
	wg.Wait()
}

func TestServeCancelWhileQueued(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1, QueueDepth: 2})
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), blockingJob("holder", started, release)); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-started

	// Admit a job whose body must never run, then cancel it while queued.
	var ran atomic.Bool
	j := dataflow.NewJob("doomed")
	j.Task("t", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		ran.Store(true)
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := s.SubmitAsync(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := doomed.Wait(ctx)
		errc <- err
	}()
	requireQueued(t, s, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	close(release)
	wg.Wait()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Error("canceled-while-queued job must never execute")
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_canceled"); got != 1 {
		t.Errorf("server_canceled = %d, want 1", got)
	}
}

func TestServeBatchFailureIsolation(t *testing.T) {
	// A failing job inside a batch must only fail its own submitter; batch
	// mates complete and all regions drain.
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 4, QueueDepth: 4})
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), blockingJob("holder", started, release)); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-started // worker parked: the next two submissions land in one batch

	boom := errors.New("boom")
	bad := dataflow.NewJob("bad")
	bad.Task("explode", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		if _, err := ctx.Scratch("tmp", 1<<16); err != nil {
			return err
		}
		return boom
	})

	badErr := make(chan error, 1)
	goodErr := make(chan error, 1)
	for _, sub := range []struct {
		job  *dataflow.Job
		errc chan error
	}{{bad, badErr}, {pipelineJob("good"), goodErr}} {
		tk, err := s.SubmitAsync(context.Background(), sub.job)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tk.Wait(context.Background())
			sub.errc <- err
		}()
	}
	requireQueued(t, s, 2)
	close(release)
	wg.Wait()

	if err := <-badErr; !errors.Is(err, boom) {
		t.Errorf("bad job err = %v, want boom", err)
	}
	if err := <-goodErr; err != nil {
		t.Errorf("good job err = %v, want success", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if live := s.Runtime().Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions after batch failure", live)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_failed"); got != 1 {
		t.Errorf("server_failed = %d, want 1", got)
	}
}

func TestServeCloseDrainsAndRejects(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 2, QueueDepth: 8})
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), pipelineJob(fmt.Sprintf("p%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Submit(context.Background(), pipelineJob("late")); !errors.Is(err, ErrServerClosed) {
		t.Errorf("err = %v, want ErrServerClosed", err)
	}
}

// TestServeConcurrentStress is the issue's -race acceptance test: ≥32 jobs
// submitted from ≥8 goroutines, every submission gets exactly one report, no
// report is shared between submissions, and the runtime's byte accounting
// returns to zero afterwards.
func TestServeConcurrentStress(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 4, MaxBatch: 4, QueueDepth: 64, Block: true})
	const (
		goroutines = 8
		perG       = 5 // 40 jobs total
	)
	type outcome struct {
		rep *Report
		err error
	}
	results := make([][]outcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		results[g] = make([]outcome, perG)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var j *dataflow.Job
				switch i % 3 {
				case 0:
					j = pipelineJob("pipe") // same name on purpose: ns must disambiguate
				case 1:
					j = workload.Hospital(workload.DefaultHospital())
				default:
					j = workload.DBMS(workload.DefaultDBMS())
				}
				rep, err := s.Submit(context.Background(), j)
				results[g][i] = outcome{rep, err}
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[*Report]bool)
	completed := 0
	for g := range results {
		for i, out := range results[g] {
			if out.err != nil {
				t.Errorf("goroutine %d job %d: %v", g, i, out.err)
				continue
			}
			if out.rep == nil {
				t.Errorf("goroutine %d job %d: lost report", g, i)
				continue
			}
			if seen[out.rep] {
				t.Errorf("goroutine %d job %d: duplicated report", g, i)
			}
			seen[out.rep] = true
			if out.rep.Makespan <= 0 {
				t.Errorf("goroutine %d job %d: non-positive makespan", g, i)
			}
			completed++
		}
	}
	if completed != goroutines*perG {
		t.Errorf("completed %d/%d jobs", completed, goroutines*perG)
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt := s.Runtime()
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
	for dev, b := range rt.Regions().DeviceBytes() {
		if b != 0 {
			t.Errorf("device %s still accounts %d bytes", dev, b)
		}
	}
	tel := rt.Telemetry()
	if got := tel.Counter(telemetry.LayerRuntime, "server_admitted"); got != goroutines*perG {
		t.Errorf("server_admitted = %d, want %d", got, goroutines*perG)
	}
	if got := tel.Counter(telemetry.LayerRuntime, "server_completed"); got != goroutines*perG {
		t.Errorf("server_completed = %d, want %d", got, goroutines*perG)
	}
	if tel.Counter(telemetry.LayerRuntime, "server_epochs") == 0 {
		t.Error("no epochs recorded")
	}
	serveSpans := 0
	for _, sp := range tel.Spans() {
		if sp.Name == "serve" {
			serveSpans++
		}
	}
	if serveSpans != goroutines*perG {
		t.Errorf("serve spans = %d, want %d", serveSpans, goroutines*perG)
	}
}

// TestServeIsolatedDeterminism pins the issue's determinism clause: identical
// jobs served in isolation (one at a time, batch of one) produce identical
// makespans across repetitions and match plain Run.
func TestServeIsolatedDeterminism(t *testing.T) {
	want, err := newRuntime(t).Run(pipelineJob("p"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1})
	for i := 0; i < 5; i++ {
		rep, err := s.Submit(context.Background(), pipelineJob("p"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Makespan != want.Makespan {
			t.Errorf("iteration %d: makespan %v, want %v", i, rep.Makespan, want.Makespan)
		}
	}
}

// TestServedSpansStayInTheRing serves more jobs than the telemetry registry
// keeps spans for through one Server: the registry holds a full ring whose
// newest span is the last delivered job's serve span, and its lifetime count
// is every task's exec span plus every job's serve span.
func TestServedSpansStayInTheRing(t *testing.T) {
	const spanRing = 4096 // telemetry's spanCap
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1})
	var recorded int64
	last := ""
	for i := 0; i <= spanRing; i++ {
		last = fmt.Sprintf("one%d", i)
		j := dataflow.NewJob(last)
		j.Task("only", dataflow.Props{Ops: 1e3}, nil)
		rep, err := s.Submit(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		recorded += int64(len(rep.Tasks)) + 1
	}
	tel := s.Runtime().Telemetry()
	spans := tel.Spans()
	if len(spans) != spanRing {
		t.Fatalf("registry holds %d spans, want a full ring of %d", len(spans), spanRing)
	}
	if newest := spans[len(spans)-1]; newest.Name != "serve" || newest.Job != last {
		t.Errorf("newest span = %s of %q, want serve of %q", newest.Name, newest.Job, last)
	}
	if got := tel.SpansRecorded(); got != recorded {
		t.Errorf("registry recorded %d spans, want %d (tasks plus jobs)", got, recorded)
	}
}

// TestConcurrentRunsAreIsolated pins the clock isolation underneath the
// Server: parallel Run calls on one runtime never perturb each other's
// virtual clocks.
func TestConcurrentRunsAreIsolated(t *testing.T) {
	rt := newRuntime(t)
	want, err := rt.Run(pipelineJob("p"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := rt.Run(pipelineJob("p"))
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			got[i] = rep.Makespan
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		if m != want.Makespan {
			t.Errorf("concurrent run %d makespan %v, want %v", i, m, want.Makespan)
		}
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
}
