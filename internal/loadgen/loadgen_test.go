package loadgen

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// newServer builds a serving stack with SLO admission for harness tests.
func newServer(t *testing.T, slo *core.SLOPolicy) *core.Server {
	t.Helper()
	srv, err := core.NewServer(core.ServerConfig{
		EpochWorkers: 4, QueueDepth: 256, MaxBatch: 8, Block: true,
		SLO: slo,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv
}

func checkLedger(t *testing.T, r *Result) {
	t.Helper()
	if got := r.Admitted + r.BestEffort + r.RejectedSLO + r.RejectedQueue + r.Errors; got != r.Submitted {
		t.Errorf("ledger mismatch: admitted %d + best-effort %d + rejected-slo %d + rejected-queue %d + errors %d = %d, submitted %d",
			r.Admitted, r.BestEffort, r.RejectedSLO, r.RejectedQueue, r.Errors, got, r.Submitted)
	}
	if got := r.Completed + r.Failed; got != r.Admitted+r.BestEffort {
		t.Errorf("completions %d + failures %d = %d, want admitted %d + best-effort %d",
			r.Completed, r.Failed, got, r.Admitted, r.BestEffort)
	}
}

// TestRunReproducible is the tentpole acceptance check: two fresh serving
// stacks fed the same seed make identical admission decisions — same
// signature, same ledger, same virtual-time distributions — even though
// wall-clock execution interleaves differently.
func TestRunReproducible(t *testing.T) {
	cfg := Config{
		N: 1500, Seed: 42, Process: Poisson,
		Rho:      1.3, // overloaded, so decisions include real rejections
		Deadline: 50 * time.Microsecond,
	}
	slo := &core.SLOPolicy{Workers: 4}

	run := func() *Result {
		srv := newServer(t, slo)
		res, err := Run(context.Background(), srv, cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		checkLedger(t, res)
		return res
	}
	a, b := run(), run()

	if a.AdmissionSig != b.AdmissionSig {
		t.Errorf("admission signatures differ: %s vs %s", a.AdmissionSig, b.AdmissionSig)
	}
	if a.Admitted != b.Admitted || a.BestEffort != b.BestEffort || a.RejectedSLO != b.RejectedSLO {
		t.Errorf("ledgers differ: run A admitted=%d best-effort=%d rejected=%d, run B admitted=%d best-effort=%d rejected=%d",
			a.Admitted, a.BestEffort, a.RejectedSLO, b.Admitted, b.BestEffort, b.RejectedSLO)
	}
	if a.RejectedSLO == 0 {
		t.Error("overloaded run rejected nothing; reproducibility check is vacuous")
	}
	if a.VirtualSojourn != b.VirtualSojourn {
		t.Errorf("virtual sojourn distributions differ:\n  A: %+v\n  B: %+v", a.VirtualSojourn, b.VirtualSojourn)
	}
	if a.VirtualMakespan != b.VirtualMakespan {
		t.Errorf("virtual makespan distributions differ:\n  A: %+v\n  B: %+v", a.VirtualMakespan, b.VirtualMakespan)
	}
}

// TestOverloadRejectsLateJobs pins the SLO-admission contract under
// sustained overload: predicted deadline misses are refused at the door,
// and every job that was admitted completes within its deadline in virtual
// time. The mix is declared-cost-only (RealFraction < 0), where the
// scheduler's estimates are exact — with opaque real bodies in the stream
// the estimator underprices and attainment is best-effort (see DESIGN.md).
func TestOverloadRejectsLateJobs(t *testing.T) {
	srv := newServer(t, &core.SLOPolicy{Workers: 4})
	deadline := 50 * time.Microsecond
	res, err := Run(context.Background(), srv, Config{
		N: 1200, Seed: 7, Process: Poisson,
		Rho: 2.0, Deadline: deadline,
		Mix: workload.MixConfig{RealFraction: -1},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkLedger(t, res)
	if res.RejectedSLO == 0 {
		t.Fatal("2x overload produced zero SLO rejections")
	}
	if res.Admitted == 0 {
		t.Fatal("2x overload admitted nothing; deadline too tight for the mix")
	}
	if res.SLOMissed != 0 {
		t.Errorf("%d admitted jobs missed their deadline in virtual time; admission predictions should be exact", res.SLOMissed)
	}
	if res.SLOMet != res.Completed {
		t.Errorf("slo-met %d != completed %d", res.SLOMet, res.Completed)
	}
	if res.VirtualSojourn.P99 > deadline {
		t.Errorf("admitted-job sojourn p99 %v exceeds deadline %v", res.VirtualSojourn.P99, deadline)
	}
}

// TestDownTierKeepsLateJobs: with DownTier the same overload admits
// everything, marking predicted misses best-effort instead of refusing.
func TestDownTierKeepsLateJobs(t *testing.T) {
	srv := newServer(t, &core.SLOPolicy{Workers: 4, DownTier: true})
	res, err := Run(context.Background(), srv, Config{
		N: 600, Seed: 7, Process: Poisson,
		Rho: 2.0, Deadline: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkLedger(t, res)
	if res.RejectedSLO != 0 {
		t.Errorf("DownTier policy rejected %d jobs", res.RejectedSLO)
	}
	if res.BestEffort == 0 {
		t.Error("2x overload down-tiered nothing")
	}
	if res.Completed != res.Submitted-res.Failed-res.Errors {
		t.Errorf("completed %d, want %d", res.Completed, res.Submitted-res.Failed-res.Errors)
	}
}

// TestBurstyReproducible runs the bursty process with diurnal modulation —
// the full arrival machinery — and checks the same replay property.
func TestBurstyReproducible(t *testing.T) {
	cfg := Config{
		N: 1000, Seed: 99, Process: Bursty, BurstSize: 12,
		DiurnalAmplitude: 0.5,
		Rho:              1.2, Deadline: 50 * time.Microsecond,
	}
	run := func() *Result {
		srv := newServer(t, &core.SLOPolicy{Workers: 4})
		res, err := Run(context.Background(), srv, cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		checkLedger(t, res)
		return res
	}
	a, b := run(), run()
	if a.AdmissionSig != b.AdmissionSig {
		t.Errorf("bursty signatures differ: %s vs %s", a.AdmissionSig, b.AdmissionSig)
	}
	if a.Span != b.Span {
		t.Errorf("virtual spans differ: %v vs %v", a.Span, b.Span)
	}
}

// TestBurstyTailExceedsPoisson compares the virtual queue-wait tail of the
// two processes at equal mean rate: bursts must wait behind each other, so
// the bursty sojourn p999 should dominate Poisson's. Purely virtual-time,
// hence deterministic.
func TestBurstyTailExceedsPoisson(t *testing.T) {
	base := Config{N: 2000, Seed: 5, Rho: 0.9, Deadline: time.Second}
	run := func(p Process, burst int) *Result {
		cfg := base
		cfg.Process, cfg.BurstSize = p, burst
		srv := newServer(t, &core.SLOPolicy{Workers: 4, DownTier: true})
		res, err := Run(context.Background(), srv, cfg)
		if err != nil {
			t.Fatalf("Run(%s): %v", p, err)
		}
		return res
	}
	poisson := run(Poisson, 0)
	bursty := run(Bursty, 32)
	if bursty.VirtualSojourn.P999 <= poisson.VirtualSojourn.P999 {
		t.Errorf("bursty sojourn p999 %v not above poisson %v at equal rate",
			bursty.VirtualSojourn.P999, poisson.VirtualSojourn.P999)
	}
}

// TestWarmupExcluded: warmup submissions count in the ledger but not the
// latency populations.
func TestWarmupExcluded(t *testing.T) {
	srv := newServer(t, nil)
	res, err := Run(context.Background(), srv, Config{N: 300, Seed: 3, Warmup: 100, Rate: 1e6})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkLedger(t, res)
	if res.Completed != 300 {
		t.Fatalf("completed %d, want 300", res.Completed)
	}
	if res.VirtualMakespan.N != 200 {
		t.Errorf("makespan population %d, want 200 (300 - 100 warmup)", res.VirtualMakespan.N)
	}
}

func TestDistOf(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 1000; i++ {
		samples = append(samples, time.Duration(i)*time.Microsecond)
	}
	d := distOf(samples)
	if d.N != 1000 {
		t.Errorf("N=%d, want 1000", d.N)
	}
	if d.P50 != 500*time.Microsecond {
		t.Errorf("p50=%v, want 500µs", d.P50)
	}
	if d.P99 != 990*time.Microsecond {
		t.Errorf("p99=%v, want 990µs", d.P99)
	}
	if d.P999 != 999*time.Microsecond {
		t.Errorf("p999=%v, want 999µs", d.P999)
	}
	if d.Max != 1000*time.Microsecond {
		t.Errorf("max=%v, want 1ms", d.Max)
	}
	if got := distOf(nil); got != (Dist{}) {
		t.Errorf("distOf(nil) = %+v, want zero", got)
	}
}
