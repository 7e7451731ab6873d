package core_test

// The allocation ledger: what a served job allocates, split by the function
// that allocated it. It lives outside package core so that its routed case can
// import the cluster.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ledgerRow is one function's share of a unit's allocations and bytes.
type ledgerRow struct {
	fn     string  // innermost repro/ function on the stack, "repro/" and "internal/" trimmed
	allocs float64 // per unit
	bytes  float64 // per unit
}

// layer is the package a row's function belongs to.
func (r ledgerRow) layer() string {
	if i := strings.IndexByte(r.fn, '.'); i >= 0 {
		return r.fn[:i]
	}
	return r.fn
}

// Two rows name no function. noReproFrame holds the allocations whose stack
// holds no repro/ function: the runtime's own. unprofiled holds what the
// runtime counts but the profile does not: the tiny allocations (pointer-free,
// under 16 bytes) that the runtime packs into a block an earlier one opened,
// and any made just outside the profile's window (allocLedger).
const (
	noReproFrame = "(runtime)"
	unprofiled   = "(tiny, unprofiled)"
)

// allocLedger runs pass once with every allocation profiled and returns what
// it allocated per unit, one row per innermost repro/ function, largest first.
// The rows' allocations sum to what the runtime counted over the pass — the
// count testing.AllocsPerRun reads — exactly, and so do their bytes, the
// unprofiled row's being what the runtime counted beyond the profile's. The
// caller has set runtime.MemProfileRate to 1.
func allocLedger(t *testing.T, pass func(), units float64) []ledgerRow {
	t.Helper()
	// Both record buffers exist before the window opens, so the window holds
	// the pass's allocations and nothing of the ledger's own.
	n, _ := runtime.MemProfile(nil, true)
	before := make([]runtime.MemProfileRecord, n+1<<10)
	after := make([]runtime.MemProfileRecord, n+1<<12)
	var m0, m1 runtime.MemStats
	// runtime.GC publishes every allocation made before it to the profile, so
	// the profile's window runs from one collection to the next. The count's
	// window holds it: it opens before the first and closes after the second.
	// An allocation the runtime's own goroutines make in between (the
	// scavenger growing a timer heap, seen right after a pass) or a server
	// goroutine makes after Submit returned is then in both, or in the count
	// alone, where the unprofiled row takes it; never in the profile alone.
	runtime.ReadMemStats(&m0)
	runtime.GC()
	nb, ok := runtime.MemProfile(before, true)
	pass()
	runtime.GC()
	na, ok2 := runtime.MemProfile(after, true)
	runtime.ReadMemStats(&m1)
	if !ok || !ok2 {
		t.Fatal("memory profile outgrew the ledger's record buffers")
	}
	// An allocation count and its bytes, per stack or function.
	type tally struct{ allocs, bytes int64 }
	counts := make(map[[32]uintptr]tally, nb)
	for _, r := range before[:nb] {
		c := counts[r.Stack0]
		counts[r.Stack0] = tally{c.allocs - r.AllocObjects, c.bytes - r.AllocBytes}
	}
	for _, r := range after[:na] {
		c := counts[r.Stack0]
		counts[r.Stack0] = tally{c.allocs + r.AllocObjects, c.bytes + r.AllocBytes}
	}
	byFn := make(map[string]tally)
	var profiled tally
	for stk, c := range counts {
		if c.allocs != 0 {
			fn := innermostRepro(stk)
			byFn[fn] = tally{byFn[fn].allocs + c.allocs, byFn[fn].bytes + c.bytes}
			profiled = tally{profiled.allocs + c.allocs, profiled.bytes + c.bytes}
		}
	}
	switch counted := int64(m1.Mallocs - m0.Mallocs); {
	case profiled.allocs > counted:
		t.Fatalf("the profile holds %d allocations of the pass, the runtime counted %d", profiled.allocs, counted)
	case profiled.allocs < counted:
		byFn[unprofiled] = tally{counted - profiled.allocs, max(0, int64(m1.TotalAlloc-m0.TotalAlloc)-profiled.bytes)}
	}
	var rows []ledgerRow
	for fn, c := range byFn {
		rows = append(rows, ledgerRow{fn, float64(c.allocs) / units, float64(c.bytes) / units})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].allocs != rows[j].allocs {
			return rows[i].allocs > rows[j].allocs
		}
		return rows[i].fn < rows[j].fn
	})
	return rows
}

// innermostRepro names the innermost repro/ function of a profiled stack,
// inlined frames included.
func innermostRepro(stk [32]uintptr) string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if name, ok := strings.CutPrefix(f.Function, "repro/"); ok {
			return strings.TrimPrefix(name, "internal/")
		}
		if !more {
			return noReproFrame
		}
	}
}

// ledgerCase is one workload the ledger splits: setup builds it and returns a
// pass over units jobs or windows. spread is how far apart two passes' counts
// may be, a unit, and limits what some of its rows may allocate a unit.
type ledgerCase struct {
	name, unit string
	spread     float64
	limits     []ledgerLimit
	setup      func(t *testing.T) (pass func(), units float64)
}

// ledgerLimit is the most the rows of some layers or functions may allocate a
// unit together, in allocations or, with bytes set, in bytes: rows names
// layers ("region") and functions ("core.(*run).fillReport").
type ledgerLimit struct {
	rows  []string
	max   float64
	bytes bool
}

// regionLimit gates the region layer at what a region and its handles cost.
func regionLimit(max float64) ledgerLimit { return ledgerLimit{[]string{"region"}, max, false} }

// reportTails are the functions that fill a succeeded job's report. Its tails
// are in its own storage, so they allocate only past it; the Report itself is
// newReport's row.
var reportTails = ledgerLimit{[]string{"core.(*run).computePeak", "core.(*run).fillReport"}, 0.4, false}

// attemptBytes gates what an attempt allocates of its own: its task reports,
// 96 bytes a task. Measured 516 bytes a lone served job; 3 364 when each
// attempt allocated its task contexts as well, 520 bytes a task.
var attemptBytes = ledgerLimit{[]string{"core.(*run).attempt"}, 700, true}

// ctxCalls are what a task body calls on its context. Their state is in the
// context slot or the job's scratch, both recycled, so a warm call allocates
// nothing: measured 13.0 allocations a stream window and 11.0 a real-body job
// when each call made its own slice, string or globals list, and no one of
// them less than 1.5 a unit. What the limit allows is warm-up the ledger cannot
// rule out. Log formats through fmt, which keeps its printers in a sync.Pool
// that every collection empties, so a pass makes a few printers afresh, 0.03
// to 0.16 a unit. And how many jobs are in flight at once is wall-clock's: a
// pass that meets a scratch no earlier pass took grows that scratch's slots
// once, 0.20 a stream window when one did. Under the race detector a sync.Pool
// drops what it is given at random, and fmt makes a printer for most calls:
// there Log is not gated.
var ctxCalls = ledgerLimit{ctxCallRows(), 0.5, false}

func ctxCallRows() []string {
	rows := []string{"core.(*taskCtx).Inputs", "core.(*taskCtx).Global", "core.(*taskCtx).report"}
	if !core.RaceBuild {
		rows = append(rows, "core.(*taskCtx).Log")
	}
	return rows
}

// replans are the planner's rows. A resubmitted job reads its plan, so a pass
// of jobs the server has served makes none: measured 2.00 allocations a lone
// served job when every submission ran HEFT.
var replans = ledgerLimit{[]string{"sched.PlanJob", "sched.heft"}, 0, false}

// handOvers are the functions that hand a region over. A region carries its
// handles, so neither may allocate: no row may name them.
var handOvers = []string{"region.(*Handle).Transfer", "region.(*Handle).share"}

// ledgerMix is the nil-body serving mix the serve_declared and cluster_recover
// workloads draw from.
func ledgerMix() []*dataflow.Job {
	mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: -1})
	pool := make([]*dataflow.Job, 256)
	for i := range pool {
		pool[i] = mix.Next()
	}
	return pool
}

// ledgerServer is the server of the served cases, the benchmark's shape, with
// slo as its admission policy.
func ledgerServer(t *testing.T, slo *core.SLOPolicy) *core.Server {
	s, err := core.NewServer(core.ServerConfig{
		ExecConfig:   core.ExecConfig{Workers: 2},
		EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
		SLO: slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
	return s
}

// submitEach is a pass that submits the pool's jobs one after another.
func submitEach(t *testing.T, s *core.Server, pool []*dataflow.Job) func() {
	return func() {
		for _, j := range pool {
			if _, err := s.Submit(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}
	}
}

var ledgerCases = []ledgerCase{
	// Which epoch worker a job lands on, and with it which free lists it
	// finds grown, is wall-clock's: a pass in five makes up to 0.3 more
	// allocations a job than the rest.
	{"lone served job", "job", 0.3, []ledgerLimit{regionLimit(5.5), reportTails, attemptBytes, replans}, func(t *testing.T) (func(), float64) {
		// TestAllocBudgetServedJob's shape: each job alone in its batch.
		pool := ledgerMix()
		return submitEach(t, ledgerServer(t, nil), pool), float64(len(pool))
	}},
	// serve_real's shape: graph analytics and DBMS pipelines, whose bodies
	// read their inputs, log and use job globals, one after another. The
	// core layer measured 7.16 a job, 16.05 when a body's calls on its
	// context allocated. Passes submit the same jobs and differ by up to 1.1
	// a job under the race detector, whose sync.Pools drop fmt's printers at
	// random.
	{"real-body job", "job", 1.5, []ledgerLimit{ctxCalls}, func(t *testing.T) (func(), float64) {
		mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: 1})
		pool := make([]*dataflow.Job, 64)
		for i := range pool {
			pool[i] = mix.Next()
		}
		return submitEach(t, ledgerServer(t, nil), pool), float64(len(pool))
	}},
	// A fault site is a submission's run ID and a task, so each pass fails
	// different tasks — about one in twenty — and retries a different number:
	// two passes differ by up to 1.6 allocations a job.
	{"routed checkpointed job", "job", 2, []ledgerLimit{regionLimit(6.5), replans}, func(t *testing.T) (func(), float64) {
		// shard's TestAllocBudgetRoutedJob: cluster_recover's shape.
		c, err := shard.NewCluster(shard.Config{Shards: 2, Server: core.ServerConfig{
			ExecConfig:   core.ExecConfig{Workers: 2, Inject: fault.NewInjector(42, 0.05, 1)},
			EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
			Recovery: &core.RecoveryPolicy{MaxAttempts: 8, PartialReplay: true},
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(context.Background()) }) //nolint:errcheck
		pool := ledgerMix()
		return func() {
			for _, j := range pool {
				if _, err := c.Submit(context.Background(), j); err != nil {
					t.Fatal(err)
				}
			}
		}, float64(len(pool))
	}},
	// How many windows a batch holds is wall-clock's, and so is what the
	// batches allocate: two passes differ by up to 0.3 allocations a window,
	// and by up to 1 under the race detector.
	{"stream window", "window", 1.5, []ledgerLimit{regionLimit(7.5), ctxCalls}, func(t *testing.T) (func(), float64) {
		// TestAllocBudgetStreamWindow's shape: stream_windows'.
		s := ledgerServer(t, nil)
		cfg := workload.StreamConfig{Windows: 64, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 4}
		// A spec holds its events, the test's input and not the engine's cost,
		// so every pass's spec is built before any pass runs: TestAllocLedger
		// runs a case's pass four times.
		specs := make([]stream.Spec, 4)
		for i := range specs {
			specs[i] = workload.Stream(cfg)
		}
		next := 0
		return func() {
			tk, err := s.SubmitStream(context.Background(), specs[next])
			next++
			if err != nil {
				t.Fatal(err)
			}
			for range tk.Reports() {
			}
			<-tk.Done()
			if err := tk.Err(); err != nil {
				t.Fatal(err)
			}
		}, float64(cfg.Windows)
	}},
	// serve_paced's shape: the default mix, real bodies and all, admitted
	// against a deadline. Every job is new to the server, as a third of
	// serve_paced's are and all of cmd/loadgen's, so each resolves its graph:
	// the dataflow layer is that and the owner names, 4 and 1 (9.05 when the
	// graph took eight). Passes submit equal jobs, drawn from one seed, and
	// differ by up to 0.5 a job under the race detector beside other tests.
	{"paced fresh job", "job", 1, []ledgerLimit{{[]string{"dataflow"}, 5.2, false}}, func(t *testing.T) (func(), float64) {
		s := ledgerServer(t, &core.SLOPolicy{Workers: 4})
		// TestAllocLedger runs a case's pass four times, and no job twice.
		const passes, perPass = 4, 64
		pools := make([][]*dataflow.Job, passes)
		for p := range pools {
			mix := workload.NewMix(workload.MixConfig{Seed: 42})
			pools[p] = make([]*dataflow.Job, perPass)
			for i := range pools[p] {
				pools[p][i] = mix.Next()
			}
		}
		next := 0
		return func() {
			for i, j := range pools[next] {
				// One arrival every 100µs leaves the modelled pool idle, so
				// only a job whose own estimate misses the deadline is refused.
				at := time.Duration(next*perPass+i) * 100 * time.Microsecond
				opt := core.SubmitOptions{Arrival: at, Deadline: 50 * time.Microsecond}
				if _, err := s.Submit(context.Background(), j, opt); err != nil && !errors.Is(err, core.ErrDeadline) {
					t.Fatal(err)
				}
			}
			next++
		}, perPass
	}},
}

// TestPlannedOncePerGraph: a job is planned once, at its first submission,
// whatever door it comes through — a lone server, an SLO-admitting one, or a
// 2-shard cluster that prices every job (TrackLoad) for shards that admit
// against a deadline, where one submission meets three planning sites: the
// router's price, the shard's admission and the shard's batch. HEFT is
// counted by what it allocates: a plan is one sched.PlanJob allocation and
// one of sched.heft's. A pool's first pass makes one plan a job, and a second
// pass of the same jobs neither plans nor runs HEFT.
func TestPlannedOncePerGraph(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	slo := &core.SLOPolicy{Workers: 4}
	opt := core.SubmitOptions{Deadline: time.Second}
	doors := []struct {
		name string
		open func(t *testing.T) core.Submitter
	}{
		{"lone server", func(t *testing.T) core.Submitter { return ledgerServer(t, nil) }},
		{"SLO server", func(t *testing.T) core.Submitter { return ledgerServer(t, slo) }},
		{"2-shard TrackLoad cluster", func(t *testing.T) core.Submitter {
			c, err := shard.NewCluster(shard.Config{Shards: 2, TrackLoad: true, Server: core.ServerConfig{
				ExecConfig: core.ExecConfig{Workers: 2}, EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true, SLO: slo,
			}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close(context.Background()) }) //nolint:errcheck
			return c
		}},
	}
	for _, door := range doors {
		sub := door.open(t)
		pool := ledgerMix()[:64]
		pass := func() {
			for _, j := range pool {
				tk, err := sub.SubmitAsync(context.Background(), j, opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows := func() (plans, heft float64) {
			for _, r := range allocLedger(t, pass, float64(len(pool))) {
				switch r.fn {
				case "sched.PlanJob":
					plans = r.allocs
				case "sched.heft":
					heft = r.allocs
				}
			}
			return plans, heft
		}
		if plans, _ := rows(); plans != 1 {
			t.Errorf("%s: a job's first submission made %.2f plans, want 1", door.name, plans)
		}
		if plans, heft := rows(); plans != 0 || heft != 0 {
			t.Errorf("%s: a resubmitted job made %.2f plans and HEFT allocated %.2f, want none", door.name, plans, heft)
		}
	}
}

// TestAllocLedger splits what a unit of each benchmark shape allocates by the
// innermost repro/ function on the allocating stack, with every allocation
// profiled (runtime.MemProfileRate = 1), and prints one table per case. The
// rows sum to the runtime's count of the pass exactly, and to what
// testing.AllocsPerRun counts for another pass to within the case's spread,
// so the table is the whole of the budget tests' numbers: a regression there
// names its function here, and a gain must show here too. Five things are
// gated here. A resubmitted job's plan (replans). The region layer, at what a region and its handles cost:
// measured 4.50 a lone served job, 5.21 a routed one and 7.03 a stream window;
// 10.90, 12.35 and 17.00 with a handle allocated per hand-over. The report's
// tails, which are in the report: 0 a lone served job, 2.0 when each was
// allocated apart. A fresh job's graph: the dataflow layer measured 5.00 a
// paced fresh job, 9.05 when resolving took eight allocations. And a task
// body's calls on its context (ctxCalls).
func TestAllocLedger(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, c := range ledgerCases {
		pass, units := c.setup(t)
		pass() // fills the free lists and caches a server's first seconds fill
		total := testing.AllocsPerRun(1, pass) / units
		rows := allocLedger(t, pass, units)
		var b strings.Builder
		sum, bytes, layers := 0.0, 0.0, map[string]float64{}
		fmt.Fprintf(&b, "  allocs    bytes  function\n")
		for _, r := range rows {
			sum += r.allocs
			bytes += r.bytes
			layers[r.layer()] += r.allocs
			fmt.Fprintf(&b, "  %6.2f  %7.0f  %s\n", r.allocs, r.bytes, r.fn)
		}
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Slice(names, func(i, j int) bool {
			if layers[names[i]] != layers[names[j]] {
				return layers[names[i]] > layers[names[j]]
			}
			return names[i] < names[j]
		})
		fmt.Fprintf(&b, "  by layer:")
		for _, l := range names {
			fmt.Fprintf(&b, " %s %.2f", l, layers[l])
		}
		t.Logf("%s: %.2f allocations and %.0f bytes a %s (AllocsPerRun %.2f)\n%s", c.name, sum, bytes, c.unit, total, b.String())
		if math.Abs(sum-total) > c.spread {
			t.Errorf("%s: the rows sum to %.2f a %s, AllocsPerRun counts %.2f", c.name, sum, c.unit, total)
		}
		for _, l := range c.limits {
			got, what := 0.0, "allocations"
			for _, r := range rows {
				if slices.Contains(l.rows, r.layer()) || slices.Contains(l.rows, r.fn) {
					if l.bytes {
						got, what = got+r.bytes, "bytes"
					} else {
						got += r.allocs
					}
				}
			}
			if got > l.max {
				t.Errorf("%s: %s allocate %.2f %s a %s, budget %.1f", c.name, strings.Join(l.rows, " + "), got, what, c.unit, l.max)
			}
		}
		for _, r := range rows {
			if slices.Contains(handOvers, r.fn) {
				t.Errorf("%s: %s allocates %.2f a %s: a hand-over allocates nothing", c.name, r.fn, r.allocs, c.unit)
			}
		}
	}
}
