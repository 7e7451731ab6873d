package core_test

// The zero-allocation gate of the access path and the engine-cost benchmarks
// of a served job. What a served job, a stream window, a wavefront run and a
// batch allocate is gated by TestAllocLedger (ledger_test.go), against a
// committed table per build.

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
)

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
	rt, err := core.New(core.ExecConfig{Workers: 1})
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
	check := func(_ time.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	line := func() int64 { return int64(i%(sharedLines-1)) * 64 }
	for name, fn := range map[string]func(){
		"shared Handle.ReadAt, cold line":      func() { check(cold[0].ReadAt(0, line(), buf)) },
		"shared Handle.WriteAt, cold line":     func() { check(cold[1].WriteAt(0, line(), buf)) },
		"ranked shared Handle.ReadAt, fenced":  func() { check(ranked[0].ReadAt(0, line(), buf)) },
		"ranked shared Handle.WriteAt, fenced": func() { check(ranked[1].WriteAt(0, line(), buf)) },
		"Handle.ReadAt":                        func() { check(h.ReadAt(0, int64(i%1024)*64, buf)) },
		"Handle.WriteAt":                       func() { check(h.WriteAt(0, int64(i%1024)*64, buf)) },
		"TaskView.AccessTime": func() {
			check(view.AccessTime("node0/cpu0", dev, 0, 64, memsim.Read, memsim.Sequential))
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

func (passFence) After(int32, []int32) error { return nil }

// BenchmarkServedJob is what the engine itself spends on one served job, in
// time and in allocations: the nil-body serving mix of the ledger's lone
// served job, whose tasks stall nowhere, so nothing but admission, planning,
// dispatch, output allocation and retirement is in the number. One whole pass
// is the ramp — it fills the free lists and the route caches the way a
// server's first seconds do — and is not timed. The bench-smoke row gating it lets
// ns/op triple and allocs/op not rise at all; BenchmarkServedWideDAG and
// shard's BenchmarkRoutedJob are its fan-out and routed counterparts.
func BenchmarkServedJob(b *testing.B) {
	s, pool := ledgerServer(b, nil, nil), drawMix(nilBodies, 256)
	submitEach(b, s, pool)()
	submitTimed(b, s, pool)
}

// submitTimed is a benchmark's timed loop: b.N submissions to s, one after
// another, cycling through pool.
func submitTimed(b *testing.B, s *core.Server, pool []*dataflow.Job) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(context.Background(), pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkServedRealJob is BenchmarkServedJob on serve_real's mix: graph
// analytics and DBMS pipelines, whose bodies read their inputs, log and use
// job globals, so what a body's calls on its context cost is in the number
// beside what their region accesses cost. One whole pass is the untimed ramp,
// and it is the determinism check as well: every job reports byte for byte
// what its solo Workers=1 run reports.
func BenchmarkServedRealJob(b *testing.B) {
	s, pool := ledgerServer(b, nil, nil), drawMix(realBodies, 256)
	rt, err := core.New(core.ExecConfig{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range pool {
		rep, err := s.Submit(context.Background(), j)
		if err != nil {
			b.Fatal(err)
		}
		solo, err := rt.Run(j)
		if err != nil {
			b.Fatal(err)
		}
		if rep.String() != solo.String() {
			b.Fatalf("%s: served report diverges from solo Workers=1:\n got: %s\nwant: %s", j.Name(), rep, solo)
		}
	}
	submitTimed(b, s, pool)
}

// BenchmarkServedJobClosedLoop is BenchmarkServedJob with the repository
// benchmark's closed loop in front: 64 jobs stay in flight through
// SubmitAsync, each new one submitted as the oldest is collected, so the
// server's workers run side by side and whatever they queue on — the region
// manager's lock, the placer's cache — is in ns/op, where one job at a time
// hides it. One whole pass, collected, is the untimed ramp; the timed loop
// collects its own last 64 before the clock stops.
func BenchmarkServedJobClosedLoop(b *testing.B) {
	s, pool := ledgerServer(b, nil, nil), drawMix(nilBodies, 256)
	closedLoop(b, s, pool, len(pool))
	b.ReportAllocs()
	b.ResetTimer()
	closedLoop(b, s, pool, b.N)
	b.StopTimer()
}

// closedLoop submits n jobs, cycling through pool, keeping 64 tickets in
// flight — each new one submitted as the oldest is collected — and collects
// the last 64 before it returns.
func closedLoop(tb testing.TB, s *core.Server, pool []*dataflow.Job, n int) {
	const inFlight = 64
	var ring [inFlight]*core.Ticket
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
		s, err := core.NewServer(core.ServerConfig{
			ExecConfig:   core.ExecConfig{Workers: 2},
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
