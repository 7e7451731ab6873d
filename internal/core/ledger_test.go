package core_test

// The allocation ledger: what each engine shape allocates, split by the
// function that allocated it, and the one allocation gate. It lives outside
// package core so that its routed case can import the cluster.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
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
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ledgerRow is one function's share of a unit's allocations and bytes.
type ledgerRow struct {
	fn     string  // innermost repro/ function on the stack, "repro/" and "internal/" trimmed
	allocs float64 // per unit
	bytes  float64 // per unit
}

// ledger is what one pass allocated a unit: the runtime's count and bytes over
// the pass's window, and the same split by function, largest first.
type ledger struct {
	allocs, bytes float64
	rows          []ledgerRow
}

// allocLedger runs pass once with every allocation profiled and returns what
// it allocated per unit. The rows' allocations and bytes sum to the ledger's
// totals exactly. Two rows name no function: "(runtime)" holds what no repro/
// function is on the stack of, and "(tiny, unprofiled)" what the runtime
// counted but the profile did not — the tiny allocations (pointer-free, under
// 16 bytes) it packs into a block an earlier one opened, and any made in the
// window but outside the profile's.
func allocLedger(t *testing.T, pass func(), units float64) ledger {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// No collection runs inside the pass but the window's own two: one
	// empties the runtime's central caches and the sync.Pools' primaries, and
	// how many a pass met would be the heap's business, not the pass's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Both record buffers exist before the window opens, so the window holds
	// the pass's allocations and nothing of the ledger's own.
	n, _ := runtime.MemProfile(nil, true)
	before := make([]runtime.MemProfileRecord, n+1<<10)
	after := make([]runtime.MemProfileRecord, n+1<<12)
	var m0, m1 runtime.MemStats
	// runtime.GC publishes every allocation made before it to the profile, so
	// the profile's window runs from one collection to the next. The count's
	// window holds it: it opens before the first and closes after the second.
	// An allocation the runtime's own goroutines make in between or a server
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
	for sign, recs := range map[int64][]runtime.MemProfileRecord{-1: before[:nb], 1: after[:na]} {
		for _, r := range recs {
			c := counts[r.Stack0]
			counts[r.Stack0] = tally{c.allocs + sign*r.AllocObjects, c.bytes + sign*r.AllocBytes}
		}
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
	counted := tally{int64(m1.Mallocs - m0.Mallocs), int64(m1.TotalAlloc - m0.TotalAlloc)}
	switch {
	case profiled.allocs > counted.allocs:
		t.Fatalf("the profile holds %d allocations of the pass, the runtime counted %d", profiled.allocs, counted.allocs)
	case profiled.allocs < counted.allocs:
		byFn["(tiny, unprofiled)"] = tally{counted.allocs - profiled.allocs, max(0, counted.bytes-profiled.bytes)}
	}
	l := ledger{allocs: float64(counted.allocs) / units, bytes: float64(max(counted.bytes, profiled.bytes)) / units}
	for fn, c := range byFn {
		l.rows = append(l.rows, ledgerRow{fn, float64(c.allocs) / units, float64(c.bytes) / units})
	}
	slices.SortFunc(l.rows, func(a, b ledgerRow) int {
		return cmp.Or(cmp.Compare(b.allocs, a.allocs), strings.Compare(a.fn, b.fn))
	})
	return l
}

// innermostRepro names the innermost repro/ function of a profiled stack,
// inlined frames included.
func innermostRepro(stk [32]uintptr) string {
	rec := runtime.MemProfileRecord{Stack0: stk}
	frames := runtime.CallersFrames(rec.Stack())
	for {
		f, more := frames.Next()
		if name, ok := strings.CutPrefix(f.Function, "repro/"); ok {
			return strings.TrimPrefix(name, "internal/")
		}
		if !more {
			return "(runtime)"
		}
	}
}

// gated is what the table holds of a ledger: its total allocations ("allocs")
// and bytes ("bytes") a unit, and its allocations a unit by layer, the
// package of a row's function.
func (l ledger) gated() map[string]float64 {
	got := map[string]float64{"allocs": l.allocs, "bytes": l.bytes}
	for _, r := range l.rows {
		layer, _, _ := strings.Cut(r.fn, ".")
		got["layer "+layer] += r.allocs
	}
	return got
}

// String is the ledger as TestAllocLedger prints it: one line per function,
// then the layers.
func (l ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  allocs    bytes  function\n")
	for _, r := range l.rows {
		fmt.Fprintf(&b, "  %6.2f  %7.0f  %s\n", r.allocs, r.bytes, r.fn)
	}
	fmt.Fprintf(&b, "  by layer:")
	gated := l.gated()
	for _, k := range sortedKeys(gated) {
		if layer, ok := strings.CutPrefix(k, "layer "); ok {
			fmt.Fprintf(&b, " %s %.2f", layer, gated[k])
		}
	}
	return b.String()
}

// sortedKeys are m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// allocBand is a table row: the least and the most the row may read a unit.
type allocBand struct{ lo, hi float64 }

// allocTable is one build's committed allocation gate: a band per case and
// row, rows named as ledger.gated names them.
type allocTable map[string]map[string]allocBand

// What a row reads moves with what the wall clock decides, and only ever
// up: a goroutine that finds the runtime's per-processor caches empty (a
// waiter for a sync.Cond, a goroutine), a recycled buffer list that ran dry
// because more jobs were in flight (32 KiB at once), and under the race
// detector a sync.Pool put that it dropped. So a measurement is the pass that
// allocated the fewest bytes of measuredPasses, after warmPasses that fill the
// free lists, the caches and the span ring as a server's first seconds do;
// and a pass holds enough units that one such event moves a row by a few
// hundredths of an allocation.
//
// The band rule, the one rule for every row: a band is the least and the most
// the row read over captureSamples measurements, each side widened by half
// that spread and by a floor — floorAllocs a unit for an allocation row, and
// floorBytes of the most it read for the bytes row — for what capture did not
// see. Outside the race build no allocation row's band may be wider than
// maxBand.
const (
	warmPasses, measuredPasses = 2, 3
	captureSamples             = 24
	floorAllocs, floorBytes    = 0.05, 0.03
	maxBand                    = 0.5
)

// widen applies the band rule to the least and the most a row read.
func widen(row string, lo, hi float64) allocBand {
	m := (hi - lo) / 2
	if row == "bytes" {
		m += floorBytes * hi
	} else {
		m += floorAllocs
	}
	return allocBand{max(0, lo-m), hi + m}
}

// allocTablePath is this build's table: the race detector's allocations are
// its own.
func allocTablePath() string {
	if core.RaceBuild {
		return "testdata/alloc_table_race.txt"
	}
	return "testdata/alloc_table.txt"
}

// recapture is the command that rewrites this build's table.
func recapture() string {
	if core.RaceBuild {
		return "go test -race -shuffle=on -timeout 30m ./internal/core/ -update"
	}
	return "go test -shuffle=on ./internal/core/ -update"
}

// outOfBand is every way a case's measured rows leave its table rows: a row
// above its band and a row below it, a gain the table must commit. A table row
// the pass did not measure reads 0, and a measured row the table lacks read 0
// in every measurement of the capture.
func outOfBand(name string, want map[string]allocBand, got map[string]float64) []string {
	if want == nil {
		return []string{fmt.Sprintf("%s has no table rows; capture them: %s", name, recapture())}
	}
	var errs []string
	check := func(row string, b allocBand, v float64) {
		switch {
		case !core.RaceBuild && row != "bytes" && b.hi-b.lo > maxBand:
			errs = append(errs, fmt.Sprintf("%s: %s's band [%.2f, %.2f] is wider than %.1f a unit: a pass needs more units", name, row, b.lo, b.hi, maxBand))
		case v > b.hi:
			errs = append(errs, fmt.Sprintf("%s: %s rose to %.2f a unit, above its band [%.2f, %.2f]; the functions above say where", name, row, v, b.lo, b.hi))
		case v < b.lo:
			errs = append(errs, fmt.Sprintf("%s: %s fell to %.2f a unit, below its band [%.2f, %.2f]; commit the gain: %s", name, row, v, b.lo, b.hi, recapture()))
		}
	}
	for row, b := range want {
		check(row, b, got[row])
	}
	for row, v := range got {
		if _, ok := want[row]; !ok {
			check(row, widen(row, 0, 0), v)
		}
	}
	sort.Strings(errs)
	return errs
}

// strayCases names the table's cases that no ledger case measures.
func strayCases(table allocTable, cases []ledgerCase) []string {
	var errs []string
	for name := range table {
		if !slices.ContainsFunc(cases, func(c ledgerCase) bool { return c.name == name }) {
			errs = append(errs, fmt.Sprintf("the table has rows for %q, which no case measures; re-capture: %s", name, recapture()))
		}
	}
	sort.Strings(errs)
	return errs
}

// readAllocTable reads this build's table: one row a line, "case\trow\tlo\thi",
// and lines starting "#" comments.
func readAllocTable() (allocTable, error) {
	text, err := os.ReadFile(allocTablePath())
	table := allocTable{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cells, b := strings.Split(line, "\t"), allocBand{}
		if len(cells) != 4 {
			return nil, fmt.Errorf("%s: %q is not case, row, least and most", allocTablePath(), line)
		}
		if _, err := fmt.Sscan(cells[2]+" "+cells[3], &b.lo, &b.hi); err != nil {
			return nil, fmt.Errorf("%s: %q: %v", allocTablePath(), line, err)
		}
		if table[cells[0]] == nil {
			table[cells[0]] = map[string]allocBand{}
		}
		table[cells[0]][cells[1]] = b
	}
	return table, err
}

// writeAllocTable writes this build's table, with its cases in the ledger's
// order.
func writeAllocTable(table allocTable) error {
	b := &strings.Builder{}
	fmt.Fprintf(b, "# What a unit of each TestAllocLedger case may allocate: case, row, least, most.\n")
	fmt.Fprintf(b, "# Each band is what %d measurements read, widened by the band rule (widen).\n# Written by %s\n", captureSamples, recapture())
	for _, c := range ledgerCases {
		for _, row := range sortedKeys(table[c.name]) {
			band, prec := table[c.name][row], 2
			if row == "bytes" {
				prec = 0
			}
			fmt.Fprintf(b, "%s\t%s\t%.*f\t%.*f\n", c.name, row, prec, band.lo, prec, band.hi)
		}
	}
	return os.WriteFile(allocTablePath(), []byte(b.String()), 0o644)
}

// ledgerCase is one workload the ledger splits and the table gates: setup
// builds it and returns a pass over units jobs, windows, runs or batches, and
// next, which builds a pass's inputs, if it consumes any, before the pass's
// window opens: what a pass allocates is the engine's.
type ledgerCase struct {
	name, unit string
	setup      func(t *testing.T) (pass, next func(), units float64)
}

// handOvers are the functions that hand a region over. A region carries its
// handles, so neither may allocate: no row may name them.
var handOvers = []string{"region.(*Handle).Transfer", "region.(*Handle).share"}

// The serving mixes: nilBodies is what serve_declared and cluster_recover
// draw from, realBodies serve_real, and the default mix serve_paced.
var (
	nilBodies  = workload.MixConfig{Seed: 42, RealFraction: -1}
	realBodies = workload.MixConfig{Seed: 42, RealFraction: 1}
)

// drawMix returns n draws of the mix cfg describes.
func drawMix(cfg workload.MixConfig, n int) []*dataflow.Job {
	mix := workload.NewMix(cfg)
	pool := make([]*dataflow.Job, n)
	for i := range pool {
		pool[i] = mix.Next()
	}
	return pool
}

// fullRegistry is a telemetry registry whose span ring is full, as a
// long-lived server's is: a pass's spans take the place of older ones and
// none grows the ring.
func fullRegistry() *telemetry.Registry {
	tel := telemetry.NewRegistry()
	tel.Record(make([]telemetry.Span, 1<<13)...) // more than the ring holds
	return tel
}

// ledgerServer is the server of the served cases, the benchmark's shape, with
// slo as its admission policy and rec as its recovery.
func ledgerServer(t testing.TB, slo *core.SLOPolicy, rec *core.RecoveryPolicy) *core.Server {
	s, err := core.NewServer(core.ServerConfig{
		ExecConfig:   core.ExecConfig{Workers: 2, Telemetry: fullRegistry()},
		EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
		SLO: slo, Recovery: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
	return s
}

// ledgerCluster is a 2-shard cluster of cfg's servers, closed when the test
// ends.
func ledgerCluster(t *testing.T, trackLoad bool, cfg core.ServerConfig) *shard.Cluster {
	c, err := shard.NewCluster(shard.Config{Shards: 2, TrackLoad: trackLoad, Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) }) //nolint:errcheck
	return c
}

// submitter is a server's or a cluster's synchronous door.
type submitter interface {
	Submit(context.Context, *dataflow.Job, ...core.SubmitOptions) (*core.Report, error)
}

// submitEach is a pass that submits the pool's jobs one after another.
func submitEach(t testing.TB, sub submitter, pool []*dataflow.Job, opts ...core.SubmitOptions) func() {
	return func() {
		for _, j := range pool {
			if _, err := sub.Submit(context.Background(), j, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// validateEach is a pass that validates the jobs *jobs holds.
func validateEach(t *testing.T, jobs *[]*dataflow.Job) func() {
	return func() {
		for _, j := range *jobs {
			if err := j.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

var ledgerCases = []ledgerCase{
	// serve_declared's shape, each job alone in its batch.
	{"lone served job", "job", func(t *testing.T) (func(), func(), float64) {
		return submitEach(t, ledgerServer(t, nil, nil), drawMix(nilBodies, 256)), func() {}, 256
	}},
	// The same with recovery on and nothing failing: every output is staged,
	// written twice to the checkpoint fabric and forgotten when its job
	// settles, and allocates nothing proportional to a payload once warm.
	{"checkpointed served job", "job", func(t *testing.T) (func(), func(), float64) {
		s := ledgerServer(t, nil, &core.RecoveryPolicy{PartialReplay: true})
		return submitEach(t, s, drawMix(nilBodies, 256)), func() {}, 256
	}},
	// serve_real's shape: graph analytics and DBMS pipelines, whose bodies
	// read their inputs, log and use job globals. fmt keeps the printers Log
	// formats with in a sync.Pool, which a collection empties.
	{"real-body job", "job", func(t *testing.T) (func(), func(), float64) {
		return submitEach(t, ledgerServer(t, nil, nil), drawMix(realBodies, 256)), func() {}, 256
	}},
	// cluster_recover's shape, which shard's BenchmarkRoutedJob times. A fault
	// site is a job's name and a task, so every pass fails and retries the
	// same tasks.
	{"routed checkpointed job", "job", func(t *testing.T) (func(), func(), float64) {
		c := ledgerCluster(t, false, core.ServerConfig{
			ExecConfig:   core.ExecConfig{Workers: 2, Inject: fault.NewInjector(42, 0.05, 1), Telemetry: fullRegistry()},
			EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true,
			Recovery: &core.RecoveryPolicy{MaxAttempts: 8, PartialReplay: true},
		})
		return submitEach(t, c, drawMix(nilBodies, 256)), func() {}, 256
	}},
	// stream_windows' shape — 64 events a window, two aggregates that each
	// read the 64 lines of the source's shared output for the first and only
	// time, each window built along the one before it — over a stream of 256
	// windows. A spec holds its events, so each pass has its own.
	{"stream window", "window", func(t *testing.T) (func(), func(), float64) {
		s := ledgerServer(t, nil, nil)
		cfg := workload.StreamConfig{Windows: 256, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 4}
		var spec stream.Spec
		return func() {
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
		}, func() { spec = workload.Stream(cfg) }, float64(cfg.Windows)
	}},
	// serve_paced's shape: the default mix, real bodies and all, admitted
	// against a deadline. Every job is new to the server, as a third of
	// serve_paced's are and all of cmd/loadgen's, so each resolves its graph
	// and plans.
	{"paced fresh job", "job", func(t *testing.T) (func(), func(), float64) {
		s := ledgerServer(t, &core.SLOPolicy{Workers: 4}, nil)
		var pool []*dataflow.Job
		var arrival time.Duration
		return func() {
			for _, j := range pool {
				// One arrival every 100µs leaves the modelled pool idle, so
				// only a job whose own estimate misses the deadline is refused.
				arrival += 100 * time.Microsecond
				opt := core.SubmitOptions{Arrival: arrival, Deadline: 50 * time.Microsecond}
				if _, err := s.Submit(context.Background(), j, opt); err != nil && !errors.Is(err, core.ErrDeadline) {
					t.Fatal(err)
				}
			}
		}, func() { pool = drawMix(workload.MixConfig{Seed: 42}, 256) }, 256
	}},
	// One parallel wavefront run of the wide diamond (src → 8 branches →
	// sink, with a fenced job global) on a 4-worker runtime. A task that
	// waits at a fence parks on a sync.Cond, whose waiter the runtime takes
	// from a per-processor cache that a collection drains.
	{"solo wavefront run", "run", func(t *testing.T) (func(), func(), float64) {
		rt, err := core.New(core.ExecConfig{Workers: 4, Telemetry: fullRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]*dataflow.Job, 256)
		for i := range jobs {
			jobs[i] = core.WideJob(fmt.Sprintf("wide%d", i), 8)
		}
		return func() {
			for _, j := range jobs {
				if _, err := rt.Run(j); err != nil {
					t.Fatal(err)
				}
			}
		}, func() {}, float64(len(jobs))
	}},
	// Four small wide jobs submitted at once to a server with one epoch
	// worker, so they overlap on its shared pool; 128 batches a pass.
	{"overlapped batch", "batch of 4", func(t *testing.T) (func(), func(), float64) {
		s, err := core.NewServer(core.ServerConfig{
			ExecConfig: core.ExecConfig{Workers: 4, Telemetry: fullRegistry()}, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 64, Block: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck
		batches := make([][]*dataflow.Job, 128)
		for b := range batches {
			for k := range 4 {
				batches[b] = append(batches[b], core.WideJob(fmt.Sprintf("w%d-%d", b, k), 4))
			}
		}
		var tks [4]*core.Ticket
		return func() {
			for _, batch := range batches {
				for k, j := range batch {
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
			}
		}, func() {}, float64(len(batches))
	}},
	// A fresh job's first Validate: the memo holding its graph, Order, the
	// graph's []int32 block and its output names.
	{"fresh job Validate", "job", func(t *testing.T) (func(), func(), float64) {
		var jobs []*dataflow.Job
		return validateEach(t, &jobs), func() { jobs = drawMix(workload.MixConfig{Seed: 42}, 256) }, 256
	}},
	// The first Validate of a job a Template built along its shape: the memo
	// alone, whose graph shares the shape's blocks. Build keeps each instance
	// and refuses it, so Instantiate stops before its own Validate and the
	// pass makes it.
	{"along-shape Validate", "job", func(t *testing.T) (func(), func(), float64) {
		cfg := workload.DefaultStream()
		spec, events := workload.Stream(cfg), workload.StreamEvents(cfg)[:cfg.WindowSize]
		kept := errors.New("kept before Validate")
		var built []*dataflow.Job
		tmpl := &dataflow.Template{Name: "w/%d", Build: func(j *dataflow.Job, n int) error {
			if err := spec.Build(stream.Window{Index: n, Events: events}, j); err != nil || n == 0 {
				return err
			}
			built = append(built, j)
			return kept
		}}
		if _, err := tmpl.Instantiate(0); err != nil {
			t.Fatal(err)
		}
		return validateEach(t, &built), func() {
			for built = built[:0]; len(built) < 256; {
				if _, err := tmpl.Instantiate(1 + len(built)); !errors.Is(err, kept) {
					t.Fatal(err)
				}
			}
		}, 256
	}},
}

// TestAllocTableGatesBothWays feeds the gate synthetic measurements: a row in
// its band passes; one allocation a unit over it fails, as does a layer the
// table lacks; and one under it fails naming the re-capture, as do a case with
// no rows and a table case that nothing measures.
func TestAllocTableGatesBothWays(t *testing.T) {
	want := map[string]allocBand{
		"allocs":     widen("allocs", 10.50, 10.52),
		"bytes":      widen("bytes", 4255, 4264),
		"layer core": widen("layer core", 5, 5.01),
	}
	in := map[string]float64{"allocs": 10.51, "bytes": 4260, "layer core": 5}
	moved := func(row string, by float64) map[string]float64 {
		got := maps.Clone(in)
		got[row] += by
		return got
	}
	for _, c := range []struct {
		name             string
		got              map[string]float64
		fails, recapture bool
	}{
		{"in its band", in, false, false},
		{"one over", moved("allocs", 1), true, false},
		{"a layer one over", moved("layer core", 1), true, false},
		{"one under", moved("allocs", -1), true, true},
		{"a layer gone", moved("layer core", -5), true, true},
		{"a layer the table lacks", moved("layer region", 1), true, false},
		{"a stray allocation the table lacks", moved("layer (runtime)", 0.01), false, false},
	} {
		errs := outOfBand("case", want, c.got)
		if got := len(errs) > 0; got != c.fails {
			t.Errorf("%s: fails %v, want %v: %q", c.name, got, c.fails, errs)
		}
		if c.recapture && (len(errs) != 1 || !strings.Contains(errs[0], recapture())) {
			t.Errorf("%s: %q does not name %q", c.name, errs, recapture())
		}
	}
	if errs := outOfBand("case", nil, in); len(errs) != 1 || !strings.Contains(errs[0], recapture()) {
		t.Errorf("a case with no rows: %q", errs)
	}
	table := allocTable{"lone served job": want, "gone": want}
	if errs := strayCases(table, ledgerCases); len(errs) != 1 || !strings.Contains(errs[0], `"gone"`) || !strings.Contains(errs[0], recapture()) {
		t.Errorf("a table case nothing measures: %q", errs)
	}
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
	slo := &core.SLOPolicy{Workers: 4}
	opt := core.SubmitOptions{Deadline: time.Second}
	doors := []struct {
		name string
		open func(t *testing.T) submitter
	}{
		{"lone server", func(t *testing.T) submitter { return ledgerServer(t, nil, nil) }},
		{"SLO server", func(t *testing.T) submitter { return ledgerServer(t, slo, nil) }},
		{"2-shard TrackLoad cluster", func(t *testing.T) submitter {
			return ledgerCluster(t, true, core.ServerConfig{
				ExecConfig: core.ExecConfig{Workers: 2}, EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024, Block: true, SLO: slo,
			})
		}},
	}
	for _, door := range doors {
		pass := submitEach(t, door.open(t), drawMix(nilBodies, 64), opt)
		rows := func() (plans, heft float64) {
			for _, r := range allocLedger(t, pass, 64).rows {
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

// TestAllocBudgetLoneJob pins that a job served alone pays for no batch: the
// nil-body mix submitted one job at a time, each in a batch of its own,
// allocates at most one more a job than the same mix kept 64 in flight, the
// benchmark's closed loop, whose batches are full. Both are counted as the
// ledger counts a pass.
func TestAllocBudgetLoneJob(t *testing.T) {
	s, pool := ledgerServer(t, nil, nil), drawMix(nilBodies, 256)
	lone := submitEach(t, s, pool)
	closed := func() { closedLoop(t, s, pool, len(pool)) }
	lone()
	closed()
	epochs := func() int64 { return s.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_epochs") }
	alone, before := allocLedger(t, lone, 256).allocs, epochs()
	batched := allocLedger(t, closed, 256).allocs
	t.Logf("served nil-body mix job: %.2f allocs alone, %.2f in the closed loop (%.1f jobs a batch)", alone, batched, 256/float64(epochs()-before))
	if alone > batched+1 {
		t.Errorf("a job served alone allocates %.2f, one in full batches %.2f: more than one is paid per batch", alone, batched)
	}
}

// measure runs measuredPasses of a case, each on inputs next built, and
// returns the one that allocated the fewest bytes.
func measure(t *testing.T, pass, next func(), units float64) ledger {
	var least ledger
	for i := range measuredPasses {
		next()
		if l := allocLedger(t, pass, units); i == 0 || l.bytes < least.bytes {
			least = l
		}
	}
	return least
}

// TestAllocLedger is the allocation gate. It splits what a unit of each case
// allocates by the innermost repro/ function on the allocating stack, with
// every allocation profiled, and prints one table per case whose rows sum to
// the runtime's count of the pass exactly. Its totals and layers are gated
// both ways against this build's committed table (allocTablePath): a row
// that rises names its function here, and a gain fails until the table is
// re-captured (recapture), which -update does over captureSamples
// measurements a case. A hand-over must allocate nothing, in every case.
func TestAllocLedger(t *testing.T) {
	table, err := readAllocTable()
	if err != nil && !*core.UpdateGolden {
		t.Fatalf("%v; capture the table: %s", err, recapture())
	}
	samples := 1
	if *core.UpdateGolden {
		samples = captureSamples
	}
	captured := allocTable{}
	for _, c := range ledgerCases {
		t.Run(c.name, func(t *testing.T) {
			pass, next, units := c.setup(t)
			for range warmPasses {
				next()
				pass()
			}
			least, most, seen := map[string]float64{}, map[string]float64{}, map[string]int{}
			for i := range samples {
				l := measure(t, pass, next, units)
				if i == 0 {
					t.Logf("%.2f allocations and %.0f bytes a %s\n%s", l.allocs, l.bytes, c.unit, l)
				}
				for _, r := range l.rows {
					if slices.Contains(handOvers, r.fn) {
						t.Errorf("%s allocates %.2f a %s: a hand-over allocates nothing", r.fn, r.allocs, c.unit)
					}
				}
				for row, v := range l.gated() {
					if seen[row] == 0 || v < least[row] {
						least[row] = v
					}
					most[row] = max(most[row], v)
					seen[row]++
				}
			}
			if !*core.UpdateGolden {
				for _, e := range outOfBand(c.name, table[c.name], least) {
					t.Error(e)
				}
				return
			}
			captured[c.name] = map[string]allocBand{}
			for row := range seen {
				if seen[row] < samples {
					least[row] = 0
				}
				captured[c.name][row] = widen(row, least[row], most[row])
			}
		})
	}
	if *core.UpdateGolden {
		if err := writeAllocTable(captured); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, e := range strayCases(table, ledgerCases) {
		t.Error(e)
	}
}
