package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// estimateOf prices a job exactly the way SLO admission does.
func estimateOf(t *testing.T, s *Server, job *dataflow.Job) time.Duration {
	t.Helper()
	est, _, err := sched.EstimateJob(job, s.rt.topo, s.rt.sched)
	if err != nil {
		t.Fatalf("EstimateJob: %v", err)
	}
	return est.Makespan
}

// TestSLOAdmissionModel drives the virtual queue model through a
// back-to-back arrival sequence on a one-worker model: the first job fits,
// the second is predicted to queue past its deadline and is refused, and a
// third arriving after the model drained is admitted again.
func TestSLOAdmissionModel(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 2, QueueDepth: 16, Block: true,
		SLO: &SLOPolicy{Workers: 1}})
	est := estimateOf(t, s, pipelineJob("p"))
	deadline := est + est/2 // fits one service time, not two

	tk1, err := s.SubmitAsync(context.Background(), pipelineJob("p"), SubmitOptions{Deadline: deadline})
	if err != nil {
		t.Fatalf("first submission refused: %v", err)
	}
	_, err = s.SubmitAsync(context.Background(), pipelineJob("p"), SubmitOptions{Deadline: deadline})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("second back-to-back submission: err = %v, want ErrDeadline", err)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_slo_rejected"); got != 1 {
		t.Errorf("server_slo_rejected = %d, want 1", got)
	}

	// After the modeled worker drains (arrival past its free time), the
	// same deadline admits again.
	tk3, err := s.SubmitAsync(context.Background(), pipelineJob("p"),
		SubmitOptions{Arrival: 2 * est, Deadline: deadline})
	if err != nil {
		t.Fatalf("post-drain submission refused: %v", err)
	}

	rep1, err := tk1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.SLODeadline != deadline {
		t.Errorf("SLODeadline = %v, want %v", rep1.SLODeadline, deadline)
	}
	if rep1.SLOWait != 0 {
		t.Errorf("first arrival should see an idle model, SLOWait = %v", rep1.SLOWait)
	}
	if rep1.SLOPredicted != est {
		t.Errorf("SLOPredicted = %v, want estimate %v", rep1.SLOPredicted, est)
	}
	if rep1.BestEffort {
		t.Error("guaranteed admission reported BestEffort")
	}
	// The reused admission plan must reproduce the solo makespan exactly.
	if rep1.Makespan != est {
		t.Errorf("Makespan %v != admission estimate %v (plan reuse broken?)", rep1.Makespan, est)
	}
	if rep3, err := tk3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	} else if rep3.SLOWait != 0 {
		t.Errorf("post-drain arrival should not queue in the model, SLOWait = %v", rep3.SLOWait)
	}
}

// TestSLOAdmissionDeterministic replays one arrival sequence through two
// fresh servers and requires identical verdicts at every step.
func TestSLOAdmissionDeterministic(t *testing.T) {
	type verdict struct {
		admitted   bool
		bestEffort bool
	}
	replay := func() []verdict {
		s := newTestServer(t, ServerConfig{EpochWorkers: 2, QueueDepth: 64, Block: true,
			SLO: &SLOPolicy{Workers: 2, DownTier: false}})
		est := estimateOf(t, s, pipelineJob("p"))
		var out []verdict
		for i := 0; i < 40; i++ {
			// Arrivals at 40% of the two-worker drain rate: overload, so the
			// sequence mixes admissions and rejections.
			arr := time.Duration(i) * est * 4 / 10
			tk, err := s.SubmitAsync(context.Background(), pipelineJob("p"),
				SubmitOptions{Arrival: arr, Deadline: 2 * est})
			v := verdict{admitted: err == nil}
			if err == nil {
				v.bestEffort = tk.BestEffort()
			} else if !errors.Is(err, ErrDeadline) {
				t.Fatalf("submission %d: %v", i, err)
			}
			out = append(out, v)
		}
		return out
	}
	a, b := replay(), replay()
	rejected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs across replays: %+v vs %+v", i, a[i], b[i])
		}
		if !a[i].admitted {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(a) {
		t.Fatalf("degenerate replay: %d/%d rejected — sequence exercises nothing", rejected, len(a))
	}
}

// TestSLODownTier: the same predicted miss that ErrDeadline refuses is
// admitted best-effort under a DownTier policy, marked on ticket, report,
// and counter.
func TestSLODownTier(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 2, QueueDepth: 16, Block: true,
		SLO: &SLOPolicy{Workers: 1, DownTier: true}})
	est := estimateOf(t, s, pipelineJob("p"))
	deadline := est + est/2

	tk1, err := s.SubmitAsync(context.Background(), pipelineJob("p"), SubmitOptions{Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := s.SubmitAsync(context.Background(), pipelineJob("p"), SubmitOptions{Deadline: deadline})
	if err != nil {
		t.Fatalf("DownTier policy refused a predicted miss: %v", err)
	}
	if tk1.BestEffort() {
		t.Error("guaranteed admission marked best-effort on ticket")
	}
	if !tk2.BestEffort() {
		t.Error("predicted miss not marked best-effort on ticket")
	}
	rep2, err := tk2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.BestEffort {
		t.Error("down-tiered job's report not marked BestEffort")
	}
	if rep2.SLOWait != est {
		t.Errorf("second back-to-back arrival should queue one service time, SLOWait = %v, want %v", rep2.SLOWait, est)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_downtiered"); got != 1 {
		t.Errorf("server_downtiered = %d, want 1", got)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_slo_rejected"); got != 0 {
		t.Errorf("server_slo_rejected = %d, want 0 under DownTier", got)
	}
}

// TestSLOUnset: without a policy, SubmitAsync ignores admission inputs
// and reports carry zero SLO fields.
func TestSLOUnset(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1})
	tk, err := s.SubmitAsync(context.Background(), pipelineJob("p"),
		SubmitOptions{Arrival: time.Hour, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatalf("SLO-less server gated a submission: %v", err)
	}
	rep, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLODeadline != 0 || rep.SLOWait != 0 || rep.SLOPredicted != 0 || rep.BestEffort {
		t.Errorf("SLO fields set without a policy: %+v", rep)
	}
}

// TestLiveWorkersWithoutScaler pins the static answer.
func TestLiveWorkersWithoutScaler(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 3})
	if got := s.LiveWorkers(); got != 3 {
		t.Errorf("LiveWorkers = %d, want 3", got)
	}
}

// TestAutoScaleGrowsUnderPressure drives the controller one decision at a
// time. A window of queue waits ten times the target grows the pool to Max
// and no further; a window of negligible waits shrinks it back to
// EpochWorkers and no further. Between decisions the pool never leaves those
// bounds. (The controller's own ticker may add a decision of its own; the
// bounds and the counts below hold either way.)
func TestAutoScaleGrowsUnderPressure(t *testing.T) {
	const workers, max = 1, 3
	s := newTestServer(t, ServerConfig{
		EpochWorkers: workers, QueueDepth: 8,
		AutoScale: &AutoScalePolicy{Max: max, TargetP99: 2 * time.Millisecond},
	})
	tel := s.Runtime().Telemetry()
	settle := func(wait time.Duration, want int) {
		t.Helper()
		for i := 0; i < scaleWindow; i++ {
			s.scaler.note(wait)
		}
		for i := 0; i < 2*max; i++ {
			s.scaler.step()
			if got := s.LiveWorkers(); got < workers || got > max {
				t.Fatalf("LiveWorkers = %d, outside the policy's bounds [%d, %d]", got, workers, max)
			}
		}
		if got := s.LiveWorkers(); got != want {
			t.Fatalf("LiveWorkers = %d after a window of %v waits, want %d", got, wait, want)
		}
	}

	settle(20*time.Millisecond, max)
	if got := tel.Counter(telemetry.LayerRuntime, "server_scale_up"); got != max-workers {
		t.Errorf("server_scale_up = %d, want %d", got, max-workers)
	}
	settle(0, workers)
	if got := tel.Counter(telemetry.LayerRuntime, "server_scale_down"); got != max-workers {
		t.Errorf("server_scale_down = %d, want %d", got, max-workers)
	}
	if _, err := s.Submit(context.Background(), pipelineJob("after")); err != nil {
		t.Fatalf("the shrunk pool does not serve: %v", err)
	}
}

// TestAutoScaleCloseRace: a scale-up racing Close either lands before the
// drain, and its worker drains with the rest, or finds the server closed and
// adds nobody. Run with -race: a worker added to the group Close is already
// waiting on is a race.
func TestAutoScaleCloseRace(t *testing.T) {
	for i := 0; i < 10; i++ {
		s, err := NewServer(ServerConfig{
			EpochWorkers: 1, QueueDepth: 8, MaxBatch: 2,
			AutoScale: &AutoScalePolicy{Max: 16, TargetP99: time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.scaler.note(time.Millisecond) // every decision wants to grow
		for j := 0; j < 4; j++ {
			if _, err := s.SubmitAsync(context.Background(), pipelineJob("j")); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				s.scaler.step()
			}
		}()
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		live, ups := s.LiveWorkers(), s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_scale_up")
		if live < 1 || live > 16 {
			t.Errorf("LiveWorkers = %d, outside the policy's bounds [1, 16]", live)
		}
		s.scaler.step() // below Max, yet a decision after Close adds nobody
		if s.LiveWorkers() != live || s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_scale_up") != ups {
			t.Errorf("a scale-up after Close: %d → %d workers", live, s.LiveWorkers())
		}
	}
}

// TestSLORefusedSubmissionKeepsNoCharge: a submission the SLO model admitted
// but the queue then refused never runs, so it gives back the capacity it was
// charged. A one-worker server holds one job in its task body and one in its
// queue slot; a third submission is refused — ErrQueueFull without Block, its
// context's end with Block — and the next admitted job must see the model
// wait it would see had the refused one never been offered.
func TestSLORefusedSubmissionKeepsNoCharge(t *testing.T) {
	for _, block := range []bool{false, true} {
		// nextWait runs the sequence, with or without the refused third
		// submission, and returns the SLOWait of the job submitted after it.
		nextWait := func(refuse bool) time.Duration {
			s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1, QueueDepth: 1, Block: block,
				SLO: &SLOPolicy{Workers: 1}})
			started, release := make(chan struct{}), make(chan struct{})
			holder, err := s.SubmitAsync(context.Background(), blockingJob("holder", started, release))
			if err != nil {
				t.Fatal(err)
			}
			<-started // the single worker is parked inside the holder's task
			queued, err := s.SubmitAsync(context.Background(), pipelineJob("queued"))
			if err != nil {
				t.Fatal(err)
			}
			requireQueued(t, s, 1)
			if refuse {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				_, err := s.SubmitAsync(ctx, pipelineJob("refused"))
				cancel()
				if want := map[bool]error{false: ErrQueueFull, true: context.DeadlineExceeded}[block]; !errors.Is(err, want) {
					t.Fatalf("block=%v: third submission: err = %v, want %v", block, err, want)
				}
			}
			close(release)
			for _, tk := range []*Ticket{holder, queued} {
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := s.Submit(context.Background(), pipelineJob("next"))
			if err != nil {
				t.Fatal(err)
			}
			return rep.SLOWait
		}
		if got, want := nextWait(true), nextWait(false); got != want {
			t.Errorf("block=%v: after a refused submission the next job waits %v in the model, %v without it: the refusal kept its charge", block, got, want)
		}
	}
}
