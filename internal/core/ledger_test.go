package core_test

// The allocation ledger: what a served job allocates, split by the function
// that allocated it. It lives outside package core so that its routed case can
// import the cluster.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ledgerRow is one function's share of a unit's allocations.
type ledgerRow struct {
	fn     string  // innermost repro/ function on the stack, "repro/" and "internal/" trimmed
	allocs float64 // per unit
}

// layer is the package a row's function belongs to.
func (r ledgerRow) layer() string {
	if i := strings.IndexByte(r.fn, '.'); i >= 0 {
		return r.fn[:i]
	}
	return r.fn
}

// Two rows name no function. noReproFrame holds the allocations whose stack
// holds no repro/ function: the runtime's own. unprofiled holds the tiny
// allocations (pointer-free, under 16 bytes) that the runtime packs into a
// block an earlier one opened, which it counts but does not profile.
const (
	noReproFrame = "(runtime)"
	unprofiled   = "(tiny, unprofiled)"
)

// allocLedger runs pass once with every allocation profiled and returns what
// it allocated per unit, one row per innermost repro/ function, largest first.
// The rows sum to what the runtime counted over the pass — the count
// testing.AllocsPerRun reads — exactly. The caller has set
// runtime.MemProfileRate to 1.
func allocLedger(t *testing.T, pass func(), units float64) []ledgerRow {
	t.Helper()
	// Both record buffers exist before the window opens, so the window holds
	// the pass's allocations and nothing of the ledger's own.
	n, _ := runtime.MemProfile(nil, true)
	before := make([]runtime.MemProfileRecord, n+1<<10)
	after := make([]runtime.MemProfileRecord, n+1<<12)
	var m0, m1 runtime.MemStats
	// runtime.GC publishes every allocation made before it to the profile.
	runtime.GC()
	nb, ok := runtime.MemProfile(before, true)
	runtime.ReadMemStats(&m0)
	pass()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	na, ok2 := runtime.MemProfile(after, true)
	if !ok || !ok2 {
		t.Fatal("memory profile outgrew the ledger's record buffers")
	}
	counts := make(map[[32]uintptr]int64, nb)
	for _, r := range before[:nb] {
		counts[r.Stack0] -= r.AllocObjects
	}
	for _, r := range after[:na] {
		counts[r.Stack0] += r.AllocObjects
	}
	byFn := make(map[string]int64)
	profiled := int64(0)
	for stk, c := range counts {
		if c != 0 {
			byFn[innermostRepro(stk)] += c
			profiled += c
		}
	}
	switch counted := int64(m1.Mallocs - m0.Mallocs); {
	case profiled > counted:
		t.Fatalf("the profile holds %d allocations of the pass, the runtime counted %d", profiled, counted)
	case profiled < counted:
		byFn[unprofiled] = counted - profiled
	}
	var rows []ledgerRow
	for fn, c := range byFn {
		rows = append(rows, ledgerRow{fn, float64(c) / units})
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
// may be, a unit, and region the most the region layer may allocate a unit.
type ledgerCase struct {
	name, unit     string
	spread, region float64
	setup          func(t *testing.T) (pass func(), units float64)
}

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

var ledgerCases = []ledgerCase{
	// Which epoch worker a job lands on, and with it which free lists it
	// finds grown, is wall-clock's: a pass in five makes up to 0.3 more
	// allocations a job than the rest.
	{"lone served job", "job", 0.3, 5.5, func(t *testing.T) (func(), float64) {
		// TestAllocBudgetServedJob's shape: each job alone in its batch.
		s, err := core.NewServer(core.ServerConfig{
			ExecConfig:   core.ExecConfig{Workers: 2},
			EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
		pool := ledgerMix()
		return func() {
			for _, j := range pool {
				if _, err := s.Submit(context.Background(), j); err != nil {
					t.Fatal(err)
				}
			}
		}, float64(len(pool))
	}},
	// A fault site is a submission's run ID and a task, so each pass fails
	// different tasks — about one in twenty — and retries a different number:
	// two passes differ by up to 1.6 allocations a job.
	{"routed checkpointed job", "job", 2, 6.5, func(t *testing.T) (func(), float64) {
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
	{"stream window", "window", 1.5, 7.5, func(t *testing.T) (func(), float64) {
		// TestAllocBudgetStreamWindow's shape: stream_windows'.
		s, err := core.NewServer(core.ServerConfig{
			ExecConfig:   core.ExecConfig{Workers: 2},
			EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
		cfg := workload.StreamConfig{Windows: 64, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 4}
		// A spec holds its events, the test's input and not the engine's cost,
		// so every pass's spec is built before any pass runs.
		specs := make([]stream.Spec, 8)
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
}

// TestAllocLedger splits what a unit of each benchmark shape allocates by the
// innermost repro/ function on the allocating stack, with every allocation
// profiled (runtime.MemProfileRate = 1), and prints one table per case. The
// rows sum to the runtime's count of the pass exactly, and to what
// testing.AllocsPerRun counts for another pass to within the case's spread,
// so the table is the whole of the budget tests' numbers: a regression there
// names its function here, and a gain must show here too. The region layer is
// gated here, at what a region and its handles cost: measured 4.50 a lone
// served job, 5.21 a routed one and 7.03 a stream window; 10.90, 12.35 and
// 17.00 with a handle allocated per hand-over.
func TestAllocLedger(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, c := range ledgerCases {
		pass, units := c.setup(t)
		pass() // fills the free lists and caches a server's first seconds fill
		total := testing.AllocsPerRun(1, pass) / units
		rows := allocLedger(t, pass, units)
		var b strings.Builder
		sum, layers := 0.0, map[string]float64{}
		for _, r := range rows {
			sum += r.allocs
			layers[r.layer()] += r.allocs
			fmt.Fprintf(&b, "  %6.2f  %s\n", r.allocs, r.fn)
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
		t.Logf("%s: %.2f allocations a %s (AllocsPerRun %.2f)\n%s", c.name, sum, c.unit, total, b.String())
		if math.Abs(sum-total) > c.spread {
			t.Errorf("%s: the rows sum to %.2f a %s, AllocsPerRun counts %.2f", c.name, sum, c.unit, total)
		}
		if got := layers["region"]; got > c.region {
			t.Errorf("%s: the region layer allocates %.2f a %s, budget %.1f", c.name, got, c.unit, c.region)
		}
		for _, r := range rows {
			if slices.Contains(handOvers, r.fn) {
				t.Errorf("%s: %s allocates %.2f a %s: a hand-over allocates nothing", c.name, r.fn, r.allocs, c.unit)
			}
		}
	}
}
