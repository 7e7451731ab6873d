package core

// Tests for partial-replay recovery (ISSUE 5): on a retry, checkpointed
// tasks replay at the deterministic recorded price in both modes, and
// partial replay additionally defers the real store fetch until a
// re-executed consumer needs the payload. The headline contract under test:
// a recovered report under RecoveryPolicy.PartialReplay is byte-identical to
// the same recovery without it at any Workers / EpochWorkers setting — the
// modes may differ only in real (wall-clock) restore traffic, never in
// virtual time.

import (
	"context"
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// patternPayload is each chain stage's output size in patternJob.
const patternPayload = 8 << 10

// patternJob builds `width` parallel chains of `depth` stages feeding one
// verifying sink. Every stage writes a chain-specific byte pattern into its
// output, and the sink reads each chain tail and checks the bytes — so a
// replay that handed a re-executed consumer a placeholder payload (instead
// of hydrating the checkpointed bytes) fails loudly, not silently.
func patternJob(name string, width, depth int) *dataflow.Job {
	j := dataflow.NewJob(name)
	tails := make([]*dataflow.Task, width)
	for c := 0; c < width; c++ {
		c := c
		var prev *dataflow.Task
		for s := 0; s < depth; s++ {
			fill := byte(7 + c)
			t := j.Task(fmt.Sprintf("c%ds%d", c, s), dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
				out, err := ctx.Output(patternPayload)
				if err != nil {
					return err
				}
				buf := make([]byte, patternPayload)
				for i := range buf {
					buf[i] = fill
				}
				now, err := out.WriteAsync(ctx.Now(), 0, buf).Await(ctx.Now())
				if err != nil {
					return err
				}
				ctx.Wait(now)
				return nil
			})
			if prev != nil {
				prev.Then(t)
			}
			prev = t
		}
		tails[c] = prev
	}
	sink := j.Task("sink", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		for c, in := range ctx.Inputs() {
			buf := make([]byte, 256)
			now, err := in.ReadAt(ctx.Now(), 0, buf)
			if err != nil {
				return err
			}
			ctx.Wait(now)
			want := byte(7 + c)
			for i, b := range buf {
				if b != want {
					return fmt.Errorf("chain %d byte %d = %#x, want %#x", c, i, b, want)
				}
			}
		}
		return nil
	})
	for _, tail := range tails {
		tail.Then(sink)
	}
	return j
}

// runReplay executes patternJob-style recovery once: a fresh runtime with
// the given worker bound and targeted kills, a fresh erasure-coded store,
// and the chosen replay mode. The report is returned with the runtime so
// callers can inspect telemetry and leak counters.
func runReplay(t *testing.T, job *dataflow.Job, workers int, kills map[string]int, partial bool, maxAttempts int) (*Report, *Runtime) {
	t.Helper()
	inj := fault.NewInjector(1, 0, 1)
	for task, n := range kills {
		inj.Kill(task, n)
	}
	rt, err := New(ExecConfig{Inject: inj, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ck, _ := newCkStore(t)
	rep, err := rt.Run(job, RecoveryPolicy{Checkpointer: ck, MaxAttempts: maxAttempts, PartialReplay: partial})
	if err != nil {
		t.Fatalf("partial=%v workers=%d: %v", partial, workers, err)
	}
	if got := ck.Snapshots(); got != 0 {
		t.Errorf("partial=%v workers=%d: %d snapshots leaked after success", partial, workers, got)
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("partial=%v workers=%d: leaked %d regions", partial, workers, live)
	}
	return rep, rt
}

// TestPartialReplayMatchesFullReplay is the headline determinism gate: for
// every worker-pool size, a retried job's report under partial replay is
// byte-identical to the same retry under full replay — and identical
// across pool sizes. The sink re-executes and verifies real payload bytes,
// so the equality also proves lazy hydration delivered the checkpointed
// data, not the placeholder.
func TestPartialReplayMatchesFullReplay(t *testing.T) {
	const width, depth = 4, 3
	var want *Report
	for _, w := range []int{1, 4, goruntime.GOMAXPROCS(0)} {
		full, _ := runReplay(t, patternJob("chains", width, depth), w, map[string]int{"sink": 1}, false, 3)
		part, _ := runReplay(t, patternJob("chains", width, depth), w, map[string]int{"sink": 1}, true, 3)
		if full.Attempts != 2 || part.Attempts != 2 {
			t.Fatalf("workers=%d: attempts full=%d partial=%d, want 2", w, full.Attempts, part.Attempts)
		}
		if !reflect.DeepEqual(full, part) {
			for id := range full.Tasks {
				if !reflect.DeepEqual(full.Tasks[id], part.Tasks[id]) {
					t.Errorf("workers=%d task %s:\nfull    %+v\npartial %+v", w, id, full.Tasks[id], part.Tasks[id])
				}
			}
			t.Fatalf("workers=%d: partial report diverges from full:\nfull    %+v\npartial %+v", w, full, part)
		}
		if part.SkippedTasks != width*depth {
			t.Errorf("workers=%d: SkippedTasks = %d, want %d", w, part.SkippedTasks, width*depth)
		}
		if part.ReplayedTasks != 1 {
			t.Errorf("workers=%d: ReplayedTasks = %d, want 1", w, part.ReplayedTasks)
		}
		if want == nil {
			want = part
			continue
		}
		if !reflect.DeepEqual(part, want) {
			t.Fatalf("workers=%d: report diverges across pool sizes:\n%+v\n!=\n%+v", w, part, want)
		}
	}
}

// TestPartialReplaySkipsUnreadRestores asserts the point of the mode: the
// real store traffic. Full replay fetches every replayed output eagerly
// (width×depth payloads); partial replay fetches only the chain tails the
// re-executed sink consumes (width payloads) — interior chain outputs are
// never pulled from the store at all.
func TestPartialReplaySkipsUnreadRestores(t *testing.T) {
	const width, depth = 4, 3
	_, rtFull := runReplay(t, patternJob("chains", width, depth), 4, map[string]int{"sink": 1}, false, 3)
	_, rtPart := runReplay(t, patternJob("chains", width, depth), 4, map[string]int{"sink": 1}, true, 3)

	fullBytes := rtFull.Telemetry().Counter(telemetry.LayerFault, "restored_bytes")
	partBytes := rtPart.Telemetry().Counter(telemetry.LayerFault, "restored_bytes")
	if fullBytes != int64(width*depth*patternPayload) {
		t.Errorf("full restored_bytes = %d, want %d", fullBytes, width*depth*patternPayload)
	}
	if partBytes != int64(width*patternPayload) {
		t.Errorf("partial restored_bytes = %d, want %d", partBytes, width*patternPayload)
	}
	if partBytes >= fullBytes {
		t.Errorf("partial replay saved nothing: %d >= %d", partBytes, fullBytes)
	}
	// Both modes replay the same task set; only the real fetches differ.
	fullRestores := rtFull.Telemetry().Counter(telemetry.LayerFault, "restores")
	partRestores := rtPart.Telemetry().Counter(telemetry.LayerFault, "restores")
	if fullRestores != partRestores || fullRestores != int64(width*depth) {
		t.Errorf("restores full=%d partial=%d, want both %d", fullRestores, partRestores, width*depth)
	}
	if got := rtPart.Telemetry().Counter(telemetry.LayerFault, "lazy_hydrations"); got != int64(width) {
		t.Errorf("lazy_hydrations = %d, want %d", got, width)
	}
}

// TestPartialReplayMultiFault drives two failures through one submission —
// a mid-chain kill on the first attempt, then a sink kill during the
// second attempt's replayed suffix — and requires the three-attempt
// outcome to stay byte-identical between the modes.
func TestPartialReplayMultiFault(t *testing.T) {
	const width, depth = 3, 3
	kills := map[string]int{"c1s2": 1, "sink": 1}
	for _, w := range []int{1, goruntime.GOMAXPROCS(0)} {
		full, _ := runReplay(t, patternJob("chains", width, depth), w, kills, false, 4)
		part, _ := runReplay(t, patternJob("chains", width, depth), w, kills, true, 4)
		if full.Attempts != 3 || part.Attempts != 3 {
			t.Fatalf("workers=%d: attempts full=%d partial=%d, want 3", w, full.Attempts, part.Attempts)
		}
		if !reflect.DeepEqual(full, part) {
			t.Fatalf("workers=%d: multi-fault partial report diverges:\n%+v\n!=\n%+v", w, full, part)
		}
		if part.SkippedTasks != width*depth {
			t.Errorf("workers=%d: SkippedTasks = %d, want %d", w, part.SkippedTasks, width*depth)
		}
		if part.SkippedTasks+part.ReplayedTasks != len(part.Tasks) {
			t.Errorf("workers=%d: skipped %d + replayed %d != %d tasks",
				w, part.SkippedTasks, part.ReplayedTasks, len(part.Tasks))
		}
	}
}

// TestServePartialReplayOverlappedMatchesFull runs the same faulty batch —
// two pattern jobs whose sinks are killed once each, plus an untouched
// pipeline mate between them — through two servers that differ only in
// RecoveryPolicy.PartialReplay, on a shared pool. Every
// member's report, including the never-failing mate's, must match
// byte-for-byte.
func TestServePartialReplayOverlappedMatchesFull(t *testing.T) {
	serve := func(partial bool) []*Report {
		inj := fault.NewInjector(1, 0, 1)
		inj.Kill("sink", 2) // first executions: pa's attempt 1, pb's attempt 1
		rt, err := New(ExecConfig{Inject: inj, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(ServerConfig{
			Runtime: rt, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 16, Block: true,
			Recovery: &RecoveryPolicy{MaxAttempts: 3, PartialReplay: partial},
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs := []*dataflow.Job{
			patternJob("pa", 2, 2),
			pipelineJob("mate"),
			patternJob("pb", 3, 2),
		}
		tks := submitOneBatch(t, s, jobs)
		reps := make([]*Report, len(tks))
		for i, tk := range tks {
			r, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatalf("partial=%v job %d: %v", partial, i, err)
			}
			reps[i] = r
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := s.Checkpointer().Snapshots(); got != 0 {
			t.Errorf("partial=%v: %d snapshots leaked", partial, got)
		}
		if live := rt.Regions().Live(); live != 0 {
			t.Errorf("partial=%v: leaked %d regions", partial, live)
		}
		return reps
	}

	full := serve(false)
	part := serve(true)
	for i := range full {
		if !reflect.DeepEqual(full[i], part[i]) {
			t.Errorf("job %d: served partial report diverges:\nfull    %+v\npartial %+v", i, full[i], part[i])
		}
	}
	for _, i := range []int{0, 2} {
		if part[i].Attempts != 2 {
			t.Errorf("job %d: attempts = %d, want 2", i, part[i].Attempts)
		}
		if part[i].SkippedTasks == 0 || part[i].ReplayedTasks == 0 {
			t.Errorf("job %d: skipped/replayed = %d/%d, want both non-zero",
				i, part[i].SkippedTasks, part[i].ReplayedTasks)
		}
		if part[i].SkippedTasks+part[i].ReplayedTasks != len(part[i].Tasks) {
			t.Errorf("job %d: skipped %d + replayed %d != %d tasks",
				i, part[i].SkippedTasks, part[i].ReplayedTasks, len(part[i].Tasks))
		}
	}
	if part[1].Attempts != 1 || part[1].SkippedTasks != 0 || part[1].ReplayedTasks != 0 {
		t.Errorf("unfailing mate shows recovery side effects: %+v", part[1])
	}
}

// benchRecoverJob builds the recovery benchmark's DAG: `width` parallel
// chains of `depth` structural stages — each checkpointing a real payload —
// feeding one sink. With the sink killed once, a retry replays every chain
// stage; full replay fetches all width×depth payloads back from the store,
// partial replay fetches only the width chain tails the re-executed sink
// receives as inputs.
func benchRecoverJob(name string, width, depth int, payload int64) *dataflow.Job {
	j := dataflow.NewJob(name)
	sink := j.Task("sink", dataflow.Props{Ops: 1e5}, nil)
	for c := 0; c < width; c++ {
		var prev *dataflow.Task
		for s := 0; s < depth; s++ {
			t := j.Task(fmt.Sprintf("c%ds%d", c, s), dataflow.Props{Ops: 2e6, OutputBytes: payload}, nil)
			if prev != nil {
				prev.Then(t)
			}
			prev = t
		}
		prev.Then(sink)
	}
	return j
}

// BenchmarkRecoverPartial measures one failed-then-recovered submission
// under full vs partial replay: the retry's wall-clock latency and the real
// restore traffic (restored-B/op). Virtual time must not move at all — the
// recovered report is asserted byte-identical across the modes, so the
// benchmark doubles as the equivalence gate at benchmark scale.
func BenchmarkRecoverPartial(b *testing.B) {
	const (
		width   = 6
		depth   = 4
		payload = 32 << 10
	)
	var want *Report
	for _, mode := range []string{"full", "partial"} {
		b.Run(mode, func(b *testing.B) {
			inj := fault.NewInjector(1, 0, 1)
			rt, err := New(ExecConfig{Inject: inj, Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			pol := RecoveryPolicy{PartialReplay: mode == "partial"}
			pol.Checkpointer, _ = newCkStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			var rep *Report
			for i := 0; i < b.N; i++ {
				inj.Kill("sink", 1)
				r, err := rt.Run(benchRecoverJob("recover", width, depth, payload), pol)
				if err != nil {
					b.Fatal(err)
				}
				if r.Attempts != 2 {
					b.Fatalf("attempts = %d, want 2", r.Attempts)
				}
				rep = r
			}
			b.StopTimer()
			restored := rt.Telemetry().Counter(telemetry.LayerFault, "restored_bytes")
			b.ReportMetric(float64(restored)/float64(b.N), "restored-B/op")
			if want == nil {
				want = rep
			} else if !reflect.DeepEqual(rep, want) {
				b.Fatalf("recovered report diverges between modes:\n%+v\n!=\n%+v", rep, want)
			}
		})
	}
}
