package core

import (
	"context"
	"errors"
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

// TestAutoScaleGrowsUnderPressure holds the single worker hostage while
// jobs pile up, then releases it: the observed queue waits blow past the
// target and the controller must grow the pool. Afterwards a stream of
// quick jobs with negligible waits must shrink it back to Min.
func TestAutoScaleGrowsUnderPressure(t *testing.T) {
	s := newTestServer(t, ServerConfig{
		EpochWorkers: 1, QueueDepth: 64, MaxBatch: 1, Block: true,
		AutoScale: &AutoScalePolicy{Min: 1, Max: 3, TargetP99: 2 * time.Millisecond,
			Interval: 2 * time.Millisecond, Window: 4},
	})
	started := make(chan struct{})
	release := make(chan struct{})
	go s.Submit(context.Background(), blockingJob("holder", started, release)) //nolint:errcheck
	<-started

	// Pile up jobs; they will dequeue with waits far above target.
	var tks []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := s.SubmitAsync(context.Background(), pipelineJob("queued"))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	time.Sleep(20 * time.Millisecond) // let the queued jobs accumulate wait
	close(release)
	for _, tk := range tks {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_scale_up") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-scaler never scaled up despite queue waits 10x the target")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.LiveWorkers(); got < 1 || got > 3 {
		t.Errorf("LiveWorkers = %d, outside policy bounds [1,3]", got)
	}

	// Feed quick jobs so the window refills with negligible waits; the
	// controller must come back down to Min (one step per interval).
	for time.Now().Before(deadline) {
		if _, err := s.Submit(context.Background(), pipelineJob("quick")); err != nil {
			t.Fatal(err)
		}
		if s.LiveWorkers() == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.LiveWorkers(); got != 1 {
		t.Errorf("LiveWorkers = %d after sustained low load, want 1", got)
	}
	if got := s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_scale_down"); got == 0 {
		t.Error("server_scale_down = 0, want > 0")
	}
}

// TestAutoScaleCloseRace: Close with an active scaler must not race the
// worker drain (the scaler is stopped before the queue closes). Run with
// -race to make this meaningful.
func TestAutoScaleCloseRace(t *testing.T) {
	for i := 0; i < 10; i++ {
		s, err := NewServer(ServerConfig{
			EpochWorkers: 1, QueueDepth: 8, MaxBatch: 2,
			AutoScale: &AutoScalePolicy{Min: 1, Max: 4, TargetP99: time.Microsecond,
				Interval: time.Millisecond, Window: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := s.SubmitAsync(context.Background(), pipelineJob("j")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
