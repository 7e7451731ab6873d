package core

// Allocation-regression gate for the determinism-tax work: a job's clock
// views, dispatcher tables and core clocks live in its recycled scratch, the
// region manager recycles data backings, and the claim ledger reuses its grant
// buffer. Every recycler is a bounded list its owner alone puts to and takes
// from, so the counts are the program's in every build, the race detector's
// included. These budgets are pinned with modest headroom above the measured
// numbers so the optimizations can't silently regress — if a change pushes a
// run back toward per-task map/backing churn, these fail before any
// benchmark is looked at.

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// allocBudget runs fn once to warm the free lists and caches, then measures.
func allocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	fn()
	got := testing.AllocsPerRun(5, fn)
	t.Logf("%s: %.0f allocs/run (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocates %.0f per run, budget is %.0f — recycling regressed?", name, got, budget)
	}
}

// TestAllocBudgetSoloWavefront pins the allocation count of one parallel
// wavefront run of the wide diamond job (src → 8 branches → sink, with a
// fenced job global): measured 130 with a report that holds its tails (138
// with the tails allocated apart, 224 with a handle allocated per hand-over, 227 with the clock views in a
// sync.Pool; 346 before the dispatcher was recycled, owners held in the region
// and nothing allocated to launch a task; 621 with plan and run state in maps
// keyed by task and device ID).
func TestAllocBudgetSoloWavefront(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	allocBudget(t, "solo wavefront run", 157, func() {
		iter++
		if _, err := rt.Run(wideJob(fmt.Sprintf("alloc%d", iter), 8)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetOverlappedBatch pins the allocation count of one
// overlapped serving batch of four small jobs on a shared pool: measured
// 310 with reports that hold their tails (330 with the tails allocated apart,
// 523 with a handle allocated per hand-over, 831 before the dispatcher was
// recycled).
func TestAllocBudgetOverlappedBatch(t *testing.T) {
	s, err := NewServer(ServerConfig{
		ExecConfig: ExecConfig{Workers: 4}, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 64, Block: true,
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
	allocBudget(t, "overlapped batch (4 jobs)", 380, func() {
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
// Measured 14.0 with a report that holds its tails; 16.0 with the tails
// allocated apart, 22.4 with a handle allocated per hand-over (a transfer, a
// share), 33.1 with an epoch, a pool and a pair of batch slices per batch and a
// closure per task goroutine, 44.4 with the report's tables in maps and 96.0
// before the run's state was carved from its blocks (the benchmark's
// serve_declared, whose batches hold several jobs, read 26.5, 37.9 and 89.6
// for the last three). What is left is per job or per output — the run's
// blocks, its report, and a region with its handles; TestAllocLedger splits it
// by function. Per task there is only the journal of a task that notes more
// than four ledger events: a fan-out's sink, which releases one input per
// branch.
func TestAllocBudgetServedJob(t *testing.T) {
	pass, jobs := servedMixPass(t, nil)
	const budget = 19.0
	pass()
	got := testing.AllocsPerRun(3, pass) / jobs
	t.Logf("served nil-body mix job: %.1f allocs/job (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("a served job allocates %.1f, budget is %.1f — a handle allocated per hand-over again, or report tables or per-task state back in maps?", got, budget)
	}
}

// TestAllocBudgetLoneJob pins that a job served alone pays for no batch: the
// nil-body mix submitted one job at a time, each in a batch of its own,
// allocates at most one more per job than the same mix kept 64 in flight, the
// benchmark's closed loop, whose batches are full. Measured 14.0 and 14.0 with
// a report that holds its tails; 16.0 and 16.0 with the tails allocated apart,
// 22.4 and 22.4 with each epoch worker keeping one epoch, pool and pair of
// batch slices, and a task goroutine started from the pool's one function
// value; 24.1 and 22.7 with a closure per goroutine, 33.1 and 26.0 with an
// epoch, a pool and slices per batch as well.
func TestAllocBudgetLoneJob(t *testing.T) {
	lone, jobs := servedMixPass(t, nil)
	s, pool := servedMix(t, nil)
	closed := func() { closedLoop(t, s, pool, len(pool)) }
	lone()
	closed()
	epochs := func() int64 { return s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_epochs") }
	alone := testing.AllocsPerRun(3, lone) / jobs
	before := epochs()
	batched := testing.AllocsPerRun(3, closed) / jobs
	// AllocsPerRun runs the closed loop once more than it measures.
	batchMean := 4 * jobs / float64(epochs()-before)
	t.Logf("served nil-body mix job: %.1f allocs alone, %.1f in the closed loop (%.1f jobs a batch)", alone, batched, batchMean)
	if alone > batched+1 {
		t.Errorf("a job served alone allocates %.1f, one in full batches %.1f: more than one is paid per batch", alone, batched)
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
// buffers, that life cycle allocates nothing proportional to a payload, and
// the store recycles its object records. Measured 9.4 KiB and 18.1
// allocations a job with a report that holds its tails (9.3 and 20.1 with the
// tails allocated apart, 9.8 and 26.5 with a handle allocated per hand-over,
// 10.3 and 37.2 with an epoch, a pool and slices per batch, 11.9 and 47.6 with
// a store record and replica list per checkpoint and a formatted run ID, 13.3
// and 58.9 with the report's tables in maps, 20.1 and 110.5 before the run's
// state was carved from its blocks); 137.3 KiB and 155.0 with a fresh staging
// buffer and fresh slab backings per output, a namespace key built per call
// and replica maps, which both budgets fail on.
func TestAllocBudgetCheckpointedJob(t *testing.T) {
	pass, jobs := servedMixPass(t, &RecoveryPolicy{PartialReplay: true})
	const budgetKiB, budgetAllocs = 16.0, 23.0
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
// the first and only time. Measured 58.9 allocations a window, 66.0 under the
// race detector, with a report that holds its tails and a graph in its memo's
// allocation (63.0 and 69.6 with both allocated apart, 72.9 and 79.5 with a
// handle allocated per hand-over, 80.6 and 87.5 with an epoch, a pool and
// slices per batch), with each window built along the graph of the window
// before it (127.2 when every window resolved its graph afresh, 144.3 with the
// report's tables in maps, 203.3 before the run's state was carved from its
// blocks); 401.4 when the coherence directory allocated a line's state on
// first touch. The budget fails on all of them.
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
	const budget = 68.0
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	serve(measured)
	goruntime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(cfg.Windows)
	t.Logf("served stream window: %.1f allocs (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("a stream window allocates %.1f, budget is %.1f — windows no longer built along the stream's shape, or directory state allocated per cache line again?", got, budget)
	}
}

// TestAllocBudgetAccessPath pins the per-access budget at zero, on a
// runtime as the server builds it: a synchronous 64-byte read and write of
// an exclusive region under a task view, the same of a shared coherent one —
// where every access is the first touch of its cache line, as a served job's
// are — and of a ranked one, shared as the runtime fans an output out, whose
// every access passes a fence (one that lets it through at once) with the
// region's lower sharers as its deps; the string-keyed pricing call the
// placers and the benchmark's layer replay use, and a resolved counter's Add.
// A task body makes thousands of these per job, so one allocation here is
// thousands per job.
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
	// cold[0] and cold[1] are openly shared, ranked[0] and ranked[1] shared
	// at rank 1 by a producer at rank 0 that installed the fence.
	var cold, ranked [2]*region.Handle
	for k := range 4 {
		sh, err := rt.Regions().Alloc(region.Spec{Name: "shared", Class: props.GlobalScratch, Size: sharedLines * 64,
			Owner: "t", Compute: "node0/cpu0", Clock: view})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Release() //nolint:errcheck
		h := &cold[k%2]
		if k < 2 {
			*h, err = sh.Share("u", "node0/cpu1")
		} else {
			h = &ranked[k%2]
			sh.Rebind(view, 0, passFence{})
			*h, err = sh.ShareRanked("u", "node0/cpu1", 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (*h).ReadAt(0, (sharedLines-1)*64, make([]byte, 64)); err != nil {
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
		"ranked shared Handle.ReadAt, fenced": func() {
			if _, err := ranked[0].ReadAt(0, int64(i%(sharedLines-1))*64, buf); err != nil {
				t.Fatal(err)
			}
		},
		"ranked shared Handle.WriteAt, fenced": func() {
			if _, err := ranked[1].WriteAt(0, int64(i%(sharedLines-1))*64, buf); err != nil {
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

// passFence is a region.Fence that never waits.
type passFence struct{}

func (passFence) After([]int32) error { return nil }

// BenchmarkServedJob is what the engine itself spends on one served job, in
// time and in allocations: the nil-body serving mix of the alloc budget above,
// whose tasks stall nowhere, so nothing but admission, planning, dispatch,
// output allocation and retirement is in the number. One whole pass is the
// ramp — it fills the free lists and the route caches the way a server's
// first seconds do — and is not timed. The bench-smoke row gating it lets
// ns/op triple and allocs/op not rise at all; BenchmarkServedWideDAG and
// shard's BenchmarkRoutedJob are its fan-out and routed counterparts.
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

// BenchmarkServedJobClosedLoop is BenchmarkServedJob with the repository
// benchmark's closed loop in front: 64 jobs stay in flight through
// SubmitAsync, each new one submitted as the oldest is collected, so the
// server's workers run side by side and whatever they queue on — the region
// manager's lock, the placer's cache — is in ns/op, where one job at a time
// hides it. One whole pass, collected, is the untimed ramp; the timed loop
// collects its own last 64 before the clock stops.
func BenchmarkServedJobClosedLoop(b *testing.B) {
	s, pool := servedMix(b, nil)
	closedLoop(b, s, pool, len(pool))
	b.ReportAllocs()
	b.ResetTimer()
	closedLoop(b, s, pool, b.N)
	b.StopTimer()
}

// closedLoop submits n jobs, cycling through pool, keeping 64 tickets in
// flight — each new one submitted as the oldest is collected — and collects
// the last 64 before it returns.
func closedLoop(tb testing.TB, s *Server, pool []*dataflow.Job, n int) {
	const inFlight = 64
	var ring [inFlight]*Ticket
	collect := func(slot int) {
		if tk := ring[slot]; tk != nil {
			if _, err := tk.Wait(context.Background()); err != nil {
				tb.Fatal(err)
			}
			ring[slot] = nil
		}
	}
	for i := 0; i < n; i++ {
		collect(i % inFlight)
		tk, err := s.SubmitAsync(context.Background(), pool[i%len(pool)])
		if err != nil {
			tb.Fatal(err)
		}
		ring[i%inFlight] = tk
	}
	for slot := range ring {
		collect(slot)
	}
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
