package core

// Edge-case coverage for Server.collect — the batch-folding path between
// the admission queue and the epoch executors — and regression pins for
// the canceled-while-queued fixes: dead tickets must neither reach the
// queue (pre-canceled contexts) nor occupy batch slots (canceled after
// enqueue).

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/telemetry"
)

// holdWorker parks the server's only worker on a blocking job and returns
// a release function. It guarantees subsequently submitted jobs queue.
func holdWorker(t *testing.T, s *Server) (release func(), done *Ticket) {
	t.Helper()
	started := make(chan struct{})
	rel := make(chan struct{})
	tk, err := s.SubmitAsync(context.Background(), blockingJob("holder", started, rel))
	if err != nil {
		t.Fatalf("holder: %v", err)
	}
	<-started
	return func() { close(rel) }, tk
}

// requireQueued asserts that the admission queue holds n tickets. SubmitAsync
// has queued its ticket by the time it returns, and a held worker takes none,
// so there is nothing to wait for.
func requireQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	if got := len(s.queue); got != n {
		t.Fatalf("queue holds %d tickets, want %d", got, n)
	}
}

// TestSubmitPreCanceledNeverQueues is the SubmitAsync fix: a submission
// whose context is already dead is refused at the door — counted canceled,
// not admitted, and its body never runs.
func TestSubmitPreCanceledNeverQueues(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var ran atomic.Bool
	j := dataflow.NewJob("dead-on-arrival")
	j.Task("t", dataflow.Props{Ops: 1e3}, func(dataflow.Ctx) error {
		ran.Store(true)
		return nil
	})
	if _, err := s.SubmitAsync(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	tel := s.Runtime().Telemetry()
	if got := tel.Counter(telemetry.LayerRuntime, "server_canceled"); got != 1 {
		t.Errorf("server_canceled = %d, want 1", got)
	}
	if got := tel.Counter(telemetry.LayerRuntime, "server_admitted"); got != 0 {
		t.Errorf("server_admitted = %d, want 0", got)
	}
	if ran.Load() {
		t.Error("dead-on-arrival job executed")
	}
}

// TestCollectCanceledTicketFreesBatchSlot is the collect-side regression
// pin: a ticket canceled while queued must not consume one of the batch's
// MaxBatch slots. Two live jobs queued behind a canceled one must land in
// the same two-slot batch — before the fix the corpse took a slot and
// split them across epochs.
func TestCollectCanceledTicketFreesBatchSlot(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 2, QueueDepth: 8})
	release, holder := holdWorker(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := s.SubmitAsync(ctx, pipelineJob("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	live1, err := s.SubmitAsync(context.Background(), pipelineJob("live1"))
	if err != nil {
		t.Fatal(err)
	}
	live2, err := s.SubmitAsync(context.Background(), pipelineJob("live2"))
	if err != nil {
		t.Fatal(err)
	}
	requireQueued(t, s, 3)
	cancel() // kill the head-of-line ticket while it sits in the queue

	release()
	if _, err := holder.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("doomed ticket: err = %v, want context.Canceled", err)
	}
	for _, tk := range []*Ticket{live1, live2} {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.BatchSize != 2 {
			t.Errorf("%s: BatchSize = %d, want 2 (canceled ticket consumed a batch slot)", rep.Job, rep.BatchSize)
		}
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_canceled"); got != 1 {
		t.Errorf("server_canceled = %d, want 1", got)
	}
}

// TestCollectEntireBatchCanceled: when every queued ticket is dead the
// batch comes back empty and runBatch must no-op — subsequent live
// submissions still serve normally.
func TestCollectEntireBatchCanceled(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 4, QueueDepth: 8})
	release, holder := holdWorker(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	var doomed []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := s.SubmitAsync(ctx, pipelineJob("doomed"))
		if err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, tk)
	}
	requireQueued(t, s, 3)
	cancel()
	release()
	if _, err := holder.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tk := range doomed {
		if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}
	rep, err := s.Submit(context.Background(), pipelineJob("after"))
	if err != nil {
		t.Fatalf("server wedged after all-dead batch: %v", err)
	}
	if rep.BatchSize != 1 {
		t.Errorf("BatchSize = %d, want 1", rep.BatchSize)
	}
}

// TestCollectMaxBatchOne: MaxBatch=1 disables folding — queued jobs each
// get a batch of their own even when they are all simultaneously available.
func TestCollectMaxBatchOne(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1, QueueDepth: 8})
	release, holder := holdWorker(t, s)
	var tks []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.SubmitAsync(context.Background(), pipelineJob("solo"))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	requireQueued(t, s, 4)
	release()
	if _, err := holder.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tks {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.BatchSize != 1 {
			t.Errorf("BatchSize = %d, want 1 with MaxBatch=1", rep.BatchSize)
		}
	}
}
