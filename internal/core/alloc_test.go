package core

// Allocation-regression gate for the determinism-tax work: the wavefront
// executor pools task clock views (topology.GetTaskView), the region manager
// pools data backings, and the claim ledger reuses its grant buffer. These
// budgets are pinned with modest headroom above the measured post-pooling
// numbers so the optimizations can't silently regress — if a change pushes a
// run back toward per-task map/backing churn, these fail before any
// benchmark is looked at.

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// raceSlack is the budget a workload is held to in this build: the budget
// itself, and a quarter more under the race detector, where sync.Pool drops a
// quarter of what is put back (see raceBuild). The workloads run either way —
// they are what drives the served mix through the recycled dispatcher under
// `make race`.
func raceSlack(budget float64) float64 {
	if raceBuild {
		return budget * 1.25
	}
	return budget
}

// allocBudget runs fn once to warm pools and caches, then measures.
func allocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	budget = raceSlack(budget)
	fn()
	got := testing.AllocsPerRun(5, fn)
	t.Logf("%s: %.0f allocs/run (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocates %.0f per run, budget is %.0f — pooling regressed?", name, got, budget)
	}
}

// TestAllocBudgetSoloWavefront pins the allocation count of one parallel
// wavefront run of the wide diamond job (src → 8 branches → sink, with a
// fenced job global): measured 227 with the dispatcher recycled, owners held in
// the region and nothing allocated to launch a task (346 before that; 621
// with plan and run state in maps keyed by task and device ID).
func TestAllocBudgetSoloWavefront(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	allocBudget(t, "solo wavefront run", 250, func() {
		iter++
		if _, err := rt.Run(wideJob(fmt.Sprintf("alloc%d", iter), 8)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetOverlappedBatch pins the allocation count of one
// overlapped serving batch of four small jobs on a shared pool: measured
// 535 (831 before the change named above).
func TestAllocBudgetOverlappedBatch(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{
		Runtime: rt, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 64, Block: true,
		MaxLinger: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background()) //nolint:errcheck
	iter := 0
	batch := func() []*dataflow.Job {
		iter++
		return []*dataflow.Job{
			wideJob(fmt.Sprintf("w%d-0", iter), 4),
			wideJob(fmt.Sprintf("w%d-1", iter), 4),
			wideJob(fmt.Sprintf("w%d-2", iter), 4),
			wideJob(fmt.Sprintf("w%d-3", iter), 4),
		}
	}
	allocBudget(t, "overlapped batch (4 jobs)", 589, func() {
		jobs := batch()
		tks := make([]*Ticket, len(jobs))
		for k, j := range jobs {
			tk, err := s.SubmitAsync(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			tks[k] = tk
		}
		for _, tk := range tks {
			if _, err := tk.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestAllocBudgetServedJob pins the repository benchmark's headline count
// where `go test` sees it: mean allocations per job of the serving mix's
// nil-body draws (chains, fan-outs, diamonds; 5.2 tasks a job), submitted one
// after another to a server of the benchmark's shape. A resubmitted job and a
// fresh one take the same path; the pool is cycled so both are in the mean.
// Measured 44.5, and 96.0 before the change named above (the benchmark's
// serve_declared, whose batches hold several jobs, reads 39.8 and 89.6). What
// is left is per job or per region — the run's blocks, its report and the
// report's maps, a region and a handle per hand-over — and nothing per task
// but its report's Regions map.
func TestAllocBudgetServedJob(t *testing.T) {
	pass, jobs := servedMixPass(t, nil)
	budget := raceSlack(49)
	pass()
	got := testing.AllocsPerRun(3, pass) / jobs
	t.Logf("served nil-body mix job: %.1f allocs/job (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("a served job allocates %.1f, budget is %.1f — per-task or per-device state back in maps?", got, budget)
	}
}

// servedMix builds a server of the benchmark's shape, with rec as its recovery
// policy, and 256 nil-body draws of the serving mix to submit to it.
func servedMix(t testing.TB, rec *RecoveryPolicy) (*Server, []*dataflow.Job) {
	t.Helper()
	s, err := NewServer(ServerConfig{
		ExecConfig:   ExecConfig{Workers: 2},
		EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
		Recovery: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
	mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: -1})
	pool := make([]*dataflow.Job, 256)
	for i := range pool {
		pool[i] = mix.Next()
	}
	return s, pool
}

// servedMixPass returns a pass that submits servedMix's jobs to its server one
// after another, with the number of jobs in a pass.
func servedMixPass(t testing.TB, rec *RecoveryPolicy) (pass func(), jobs float64) {
	t.Helper()
	s, pool := servedMix(t, rec)
	return func() {
		for _, j := range pool {
			if _, err := s.Submit(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}
	}, float64(len(pool))
}

// TestAllocBudgetCheckpointedJob pins what recovery adds to a served job when
// nothing fails: the same nil-body mix and server shape as
// TestAllocBudgetServedJob with a RecoveryPolicy on, so every task output is
// staged, written twice to the checkpoint fabric and forgotten when its job
// settles. After a warm-up pass has filled the free lists from returned
// buffers, that life cycle allocates nothing proportional to a payload.
// Measured 14.1 KiB and 59.0 allocations a job (20.1 and 110.5 before the
// change named above); 137.3 KiB and 155.0 with a fresh staging buffer and
// fresh slab backings per output, a namespace key built per call and replica
// maps, which both budgets fail on.
func TestAllocBudgetCheckpointedJob(t *testing.T) {
	pass, jobs := servedMixPass(t, &RecoveryPolicy{PartialReplay: true})
	budgetKiB, budgetAllocs := raceSlack(16), raceSlack(65)
	pass()
	const passes = 3
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	goruntime.ReadMemStats(&after)
	jobs *= passes
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / jobs
	allocs := float64(after.Mallocs-before.Mallocs) / jobs
	t.Logf("checkpointed nil-body mix job: %.1f KiB, %.1f allocs (budgets %.1f KiB, %.1f)", kib, allocs, budgetKiB, budgetAllocs)
	if kib > budgetKiB {
		t.Errorf("a checkpointed job allocates %.1f KiB, budget is %.1f — a payload-sized buffer per output is back", kib, budgetKiB)
	}
	if allocs > budgetAllocs {
		t.Errorf("a checkpointed job makes %.1f allocations, budget is %.1f", allocs, budgetAllocs)
	}
}

// TestAllocBudgetStreamWindow pins what a served stream window allocates, in
// the repository benchmark's stream_windows shape: 64 events a window, two
// aggregates that each read the 64 lines of the source's shared output for
// the first and only time. Measured 148.9 allocations a window (203.3 before
// the change named above); 401.4 when the coherence directory allocated a
// line's state on first touch, which the budget fails on.
func TestAllocBudgetStreamWindow(t *testing.T) {
	s, err := NewServer(ServerConfig{
		ExecConfig:   ExecConfig{Workers: 2},
		EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background()) //nolint:errcheck
	cfg := workload.StreamConfig{Windows: 64, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 4}
	serve := func(spec stream.Spec) {
		tk, err := s.SubmitStream(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for range tk.Reports() {
		}
		<-tk.Done()
		if err := tk.Err(); err != nil {
			t.Fatal(err)
		}
	}
	// Both specs are built first: a spec holds its events, which are the
	// test's input and not the engine's cost.
	warm, measured := workload.Stream(cfg), workload.Stream(cfg)
	serve(warm)
	budget := raceSlack(164)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	serve(measured)
	goruntime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(cfg.Windows)
	t.Logf("served stream window: %.1f allocs (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("a stream window allocates %.1f, budget is %.1f — directory state allocated per cache line again?", got, budget)
	}
}

// TestAllocBudgetAccessPath pins the per-access budget at zero, on a
// runtime as the server builds it: a synchronous 64-byte read and write of
// an exclusive region under a task view, the same of a shared coherent one —
// where every access is the first touch of its cache line, as a served job's
// are — the string-keyed pricing call the placers and the benchmark's layer
// replay use, and a resolved counter's Add. A task body makes thousands of
// these per job, so one allocation here is thousands per job.
func TestAllocBudgetAccessPath(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	view := rt.Topology().NewTaskView()
	h, err := rt.Regions().Alloc(region.Spec{Name: "budget", Class: props.Transfer, Size: 1 << 16,
		Owner: "t", Compute: "node0/cpu0", Clock: view})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release() //nolint:errcheck
	dev, err := h.DeviceID()
	if err != nil {
		t.Fatal(err)
	}
	// The directory's table of a region grows to the highest line touched; a
	// served job finds the capacity in the table the job before it dropped,
	// this test by touching the last lines first.
	const sharedLines = 1 << 12
	var cold [2]*region.Handle
	for k := range cold {
		sh, err := rt.Regions().Alloc(region.Spec{Name: "shared", Class: props.GlobalScratch, Size: sharedLines * 64,
			Owner: "t", Compute: "node0/cpu0", Clock: view})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Release() //nolint:errcheck
		if cold[k], err = sh.Share("u", "node0/cpu1"); err != nil {
			t.Fatal(err)
		}
		if _, err := cold[k].ReadAt(0, (sharedLines-1)*64, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	counter := rt.Telemetry().Handle(telemetry.LayerRegion, "bytes_read")
	buf := make([]byte, 64)
	i := 0
	for name, fn := range map[string]func(){
		"shared Handle.ReadAt, cold line": func() {
			if _, err := cold[0].ReadAt(0, int64(i%(sharedLines-1))*64, buf); err != nil {
				t.Fatal(err)
			}
		},
		"shared Handle.WriteAt, cold line": func() {
			if _, err := cold[1].WriteAt(0, int64(i%(sharedLines-1))*64, buf); err != nil {
				t.Fatal(err)
			}
		},
		"Handle.ReadAt": func() {
			if _, err := h.ReadAt(0, int64(i%1024)*64, buf); err != nil {
				t.Fatal(err)
			}
		},
		"Handle.WriteAt": func() {
			if _, err := h.WriteAt(0, int64(i%1024)*64, buf); err != nil {
				t.Fatal(err)
			}
		},
		"TaskView.AccessTime": func() {
			if _, err := view.AccessTime("node0/cpu0", dev, 0, 64, memsim.Read, memsim.Sequential); err != nil {
				t.Fatal(err)
			}
		},
		"Counter.Add": func() { counter.Add(64) },
	} {
		fn()
		if got := testing.AllocsPerRun(200, func() { i++; fn() }); got != 0 {
			t.Errorf("%s allocates %.0f per call, budget is 0", name, got)
		}
	}
}

// BenchmarkServedJob is what the engine itself spends on one served job, in
// time and in allocations: the nil-body serving mix of the alloc budget above,
// whose tasks stall nowhere, so nothing but admission, planning, dispatch,
// output allocation and retirement is in the number. One whole pass is the
// ramp — it fills the free lists, the pools and the route caches the way a
// server's first seconds do — and is not timed. The bench-smoke row gating it (ns/op may not triple, allocs/op may
// not rise) is the first serving gate that a slept task body does not bound.
func BenchmarkServedJob(b *testing.B) {
	s, pool := servedMix(b, nil)
	submit := func(i int) {
		if _, err := s.Submit(context.Background(), pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := range pool {
		submit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(i)
	}
	b.StopTimer()
}

// BenchmarkNewServer is the construction cost of the serving stack in the
// repository benchmark's configuration — what its setup_s metric pays per
// run besides generating inputs. Nothing on the access path may be
// precomputed here: routes, counters and histogram buckets resolve on first
// use, so this number does not grow when the hot path gains a cache.
func BenchmarkNewServer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewServer(ServerConfig{
			ExecConfig:   ExecConfig{Workers: 2},
			EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
