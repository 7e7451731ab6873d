package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// newRecoveryServer builds a server with recovery over the default store and
// a runtime carrying the given injector.
func newRecoveryServer(t *testing.T, inj *fault.Injector, pol RecoveryPolicy, cfg ServerConfig) *Server {
	t.Helper()
	rt, err := New(ExecConfig{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runtime = rt
	cfg.Recovery = &pol
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
	return s
}

// TestServeRecoveryConcurrentStress is the issue's -race acceptance test:
// ≥8 concurrent submitters with injected task faults, every job eventually
// succeeds with its attempt count reported, and the checkpointer drains to
// zero snapshots.
//
// rate=1, kills=1 makes the schedule of failures deterministic per
// submission: each of the pipeline's 3 tasks is killed exactly once, in
// topological order, so every submission needs exactly 4 attempts.
func TestServeRecoveryConcurrentStress(t *testing.T) {
	inj := fault.NewInjector(1, 1.0, 1)
	s := newRecoveryServer(t, inj,
		RecoveryPolicy{MaxAttempts: 4},
		ServerConfig{EpochWorkers: 4, MaxBatch: 4, QueueDepth: 64, Block: true})

	const (
		goroutines = 8
		perG       = 4 // 32 jobs total
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
				// Same job name on purpose: per-submission snapshot
				// namespaces must keep the checkpoints apart.
				rep, err := s.Submit(context.Background(), pipelineJob("pipe"))
				results[g][i] = outcome{rep, err}
			}
		}(g)
	}
	wg.Wait()

	total := goroutines * perG
	for g := range results {
		for i, out := range results[g] {
			if out.err != nil {
				t.Errorf("goroutine %d job %d: %v", g, i, out.err)
				continue
			}
			if out.rep.Attempts != 4 {
				t.Errorf("goroutine %d job %d: attempts = %d, want 4", g, i, out.rep.Attempts)
			}
			if out.rep.Makespan <= 0 {
				t.Errorf("goroutine %d job %d: non-positive makespan", g, i)
			}
			if len(out.rep.Tasks) != 3 {
				t.Errorf("goroutine %d job %d: %d task reports, want 3", g, i, len(out.rep.Tasks))
			}
		}
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Checkpointer().Snapshots(); got != 0 {
		t.Errorf("snapshots after drain = %d, want 0", got)
	}
	rt := s.Runtime()
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
	tel := rt.Telemetry()
	if got := tel.Counter(telemetry.LayerRuntime, "server_completed"); got != int64(total) {
		t.Errorf("server_completed = %d, want %d", got, total)
	}
	if got := tel.Counter(telemetry.LayerRuntime, "server_recovered"); got != int64(total) {
		t.Errorf("server_recovered = %d, want %d", got, total)
	}
	// 3 retries per submission (one per killed task).
	if got := tel.Counter(telemetry.LayerFault, "job_retries"); got != int64(3*total) {
		t.Errorf("job_retries = %d, want %d", got, 3*total)
	}
	if tel.Counter(telemetry.LayerFault, "restores") == 0 {
		t.Error("no restores recorded")
	}
	recovered := 0
	for _, sp := range tel.Spans() {
		if sp.Name == "serve-recovered" {
			recovered++
		}
	}
	if recovered != total {
		t.Errorf("serve-recovered spans = %d, want %d", recovered, total)
	}
}

// TestServeWithoutRecoverySurfacesFault pins the acceptance contrast: the
// same injected workload without a RecoveryPolicy fails its submitters.
func TestServeWithoutRecoverySurfacesFault(t *testing.T) {
	inj := fault.NewInjector(1, 1.0, 1)
	rt, err := New(ExecConfig{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ServerConfig{Runtime: rt, EpochWorkers: 2, Block: true})
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), pipelineJob("pipe"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("job %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	tel := rt.Telemetry()
	if got := tel.Counter(telemetry.LayerRuntime, "server_failed"); got != n {
		t.Errorf("server_failed = %d, want %d", got, n)
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
}

// TestServeRecoveryBackoff pins the virtual-time backoff: a retried job's
// tasks start no earlier than the accumulated backoff on the epoch clock.
func TestServeRecoveryBackoff(t *testing.T) {
	const backoff = time.Millisecond
	inj := fault.NewInjector(1, 0, 1)
	inj.Kill("ingest", 1) // attempt 1 dies at the first task
	s := newRecoveryServer(t, inj,
		RecoveryPolicy{MaxAttempts: 2, Backoff: backoff},
		ServerConfig{EpochWorkers: 1, MaxBatch: 1})

	rep, err := s.Submit(context.Background(), pipelineJob("pipe"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", rep.Attempts)
	}
	for id, tr := range rep.Tasks {
		if tr.Start < backoff {
			t.Errorf("task %s starts at %v, want ≥ %v (retry backoff)", id, tr.Start, backoff)
		}
	}
	// Queue-wait is now a histogram, not a sum counter.
	h := s.Runtime().Telemetry().Hist(telemetry.LayerRuntime, "server_queue_wait")
	if h == nil || h.Count() != 1 {
		t.Fatalf("server_queue_wait histogram missing or wrong count: %+v", h)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_queue_wait_ns"); got != 0 {
		t.Errorf("legacy sum counter still written: %d", got)
	}
}

// TestServeRecoveryExhaustion: a permanently failing job still fails after
// MaxAttempts, and its snapshots are forgotten.
func TestServeRecoveryExhaustion(t *testing.T) {
	inj := fault.NewInjector(1, 0, 1)
	inj.Kill("reduce", 99) // sink dies every attempt
	s := newRecoveryServer(t, inj,
		RecoveryPolicy{MaxAttempts: 3},
		ServerConfig{EpochWorkers: 1, MaxBatch: 1})

	_, err := s.Submit(context.Background(), pipelineJob("pipe"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Checkpointer().Snapshots(); got != 0 {
		t.Errorf("snapshots after exhausted job = %d, want 0", got)
	}
	tel := s.Runtime().Telemetry()
	if got := tel.Counter(telemetry.LayerFault, "job_retries"); got != 2 {
		t.Errorf("job_retries = %d, want 2", got)
	}
	if got := tel.Counter(telemetry.LayerRuntime, "server_failed"); got != 1 {
		t.Errorf("server_failed = %d, want 1", got)
	}
	if live := s.Runtime().Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
}

// TestCheckpointerConcurrentSameNameJobs pins the keying bugfix: two
// concurrent recovery runs of same-named jobs sharing one Checkpointer must
// not cross-restore or cross-Forget each other's snapshots.
func TestCheckpointerConcurrentSameNameJobs(t *testing.T) {
	ck, _ := newCkStore(t)
	const n = 4
	type res struct {
		counts map[string]*int
		err    error
	}
	results := make([]res, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt, err := New(ExecConfig{})
			if err != nil {
				results[i].err = err
				return
			}
			counts := map[string]*int{"produce": new(int), "transform": new(int), "consume": new(int)}
			results[i].counts = counts
			_, results[i].err = rt.Run(flakyJob(1, counts), RecoveryPolicy{Checkpointer: ck})
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Errorf("job %d: %v", i, r.err)
			continue
		}
		// Cross-restore would skip the producer entirely (0 executions);
		// cross-Forget would force a re-execution (2 executions).
		if got := *r.counts["produce"]; got != 1 {
			t.Errorf("job %d: produce executed %d times, want exactly 1", i, got)
		}
	}
	if got := ck.Snapshots(); got != 0 {
		t.Errorf("snapshots after all jobs = %d, want 0", got)
	}
}

// TestCheckpointerForgetSnapshotRace hammers snapshot/restore/Forget from
// many goroutines (distinct run IDs plus re-checkpoints) — the race
// detector validates that store I/O left the critical section safely.
func TestCheckpointerForgetSnapshotRace(t *testing.T) {
	ck, _ := newCkStore(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("job@%d", w)
			for i := 0; i < 20; i++ {
				task := fmt.Sprintf("t%d", i%5)
				if _, err := ck.open(id).snapshot(task, []byte("payload"), true); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if _, _, _, err := ck.open(id).restore(task); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
				if i%7 == 0 {
					ck.Forget(id)
				}
			}
			ck.Forget(id)
		}(w)
	}
	wg.Wait()
	if got := ck.Snapshots(); got != 0 {
		t.Errorf("snapshots after forget-all = %d, want 0", got)
	}
}

// TestRestoreDeliversEmptyPayload pins the zero-byte restore fix: a
// checkpoint entry that recorded an output with an empty payload must still
// deliver a region to successors instead of starving them.
func TestRestoreDeliversEmptyPayload(t *testing.T) {
	rt := newRuntime(t)
	ck, _ := newCkStore(t)

	j := dataflow.NewJob("empty-out")
	got := make(chan int, 1)
	p := j.Task("produce", dataflow.Props{Ops: 1e3}, nil)
	c := j.Task("consume", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		got <- len(ctx.Inputs())
		return nil
	})
	p.Then(c)

	// Simulate a prior attempt that checkpointed produce's output with an
	// empty payload (hasOutput=true, zero bytes), and resume from it.
	id := ck.NewRunID(j.Name())
	if _, err := ck.open(id).snapshot("produce", nil, true); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Runtime: rt, Recovery: &RecoveryPolicy{Checkpointer: ck}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background()) //nolint:errcheck
	rep, err := s.Submit(context.Background(), j, SubmitOptions{ResumeID: id})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedTasks != 1 || rep.ReplayedTasks != 1 {
		t.Errorf("skipped/replayed = %d/%d, want 1/1", rep.SkippedTasks, rep.ReplayedTasks)
	}
	if inputs := <-got; inputs != 1 {
		t.Errorf("consumer saw %d inputs, want 1 (empty snapshot must still deliver)", inputs)
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
}

// TestCheckpointerOutputlessEntries pins the other half of the fix: a sink
// that completed without any output restores as "done, nothing to deliver".
func TestCheckpointerOutputlessEntries(t *testing.T) {
	ck, _ := newCkStore(t)
	if _, err := ck.open("id").snapshot("sink", nil, false); err != nil {
		t.Fatal(err)
	}
	data, hasOutput, _, err := ck.open("id").restore("sink")
	if err != nil {
		t.Fatal(err)
	}
	if hasOutput || data != nil {
		t.Errorf("outputless entry restored as (%v, hasOutput=%v), want (nil, false)", data, hasOutput)
	}
	if _, _, _, err := ck.open("id").restore("missing"); err == nil {
		t.Error("restore of unknown task must fail")
	}
}
