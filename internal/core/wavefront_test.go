package core

// Tests for the parallel wavefront executor: virtual-time determinism
// across worker-pool sizes, clean drains on mid-wavefront failure and
// cancellation, bounded queue linger, and the wide-DAG speedup benchmark.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/props"
)

// wideJob builds a src → width branches → sink diamond whose bodies do real
// work through every concurrency-sensitive runtime path: input reads from
// the shared fan-out region (coherence-fenced), private scratch writes
// (parallel payload copies), a job-global accumulator (fence-gated first
// use, rank-ordered read-modify-write), and compute charges.
func wideJob(name string, width int) *dataflow.Job {
	j := dataflow.NewJob(name)
	src := j.Task("src", dataflow.Props{Ops: 1e5, OutputBytes: 32 << 10}, nil)
	sink := j.Task("sink", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		buf := make([]byte, 64)
		for _, in := range ctx.Inputs() {
			now, err := in.ReadAt(ctx.Now(), 0, buf)
			if err != nil {
				return err
			}
			ctx.Wait(now)
		}
		return nil
	})
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("branch%02d", i)
		t := j.Task(id, dataflow.Props{Ops: 2e5, OutputBytes: 256}, func(ctx dataflow.Ctx) error {
			in := ctx.Inputs()[0]
			head := make([]byte, 1<<10)
			now, err := in.ReadAt(ctx.Now(), 0, head)
			if err != nil {
				return err
			}
			ctx.Wait(now)

			scratch, err := ctx.Scratch("buf", 16<<10)
			if err != nil {
				return err
			}
			payload := make([]byte, 4<<10)
			for b := range payload {
				payload[b] = byte(b)
			}
			for off := int64(0); off < 16<<10; off += int64(len(payload)) {
				now, err := scratch.WriteAt(ctx.Now(), off, payload)
				if err != nil {
					return err
				}
				ctx.Wait(now)
			}

			acc, err := ctx.Global("acc", props.GlobalState, 4096)
			if err != nil {
				return err
			}
			cnt := make([]byte, 8)
			now, err = acc.ReadAt(ctx.Now(), 0, cnt)
			if err != nil {
				return err
			}
			ctx.Wait(now)
			cnt[0]++
			now, err = acc.WriteAt(ctx.Now(), 0, cnt)
			if err != nil {
				return err
			}
			ctx.Wait(now)
			ctx.Charge(1e5)
			return nil
		})
		src.Then(t)
		t.Then(sink)
	}
	return j
}

// TestWavefrontDeterministicAcrossWorkerCounts is the determinism gate: the
// report — virtual makespan, every task's start/finish, placements, peak
// memory, final outputs — must be byte-for-byte identical whether the DAG
// ran on one worker or many.
func TestWavefrontDeterministicAcrossWorkerCounts(t *testing.T) {
	counts := []int{1, 4, goruntime.GOMAXPROCS(0)}
	var want *Report
	for _, w := range counts {
		rt, err := New(ExecConfig{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if rt.Workers() != w {
			t.Fatalf("Workers() = %d, want %d", rt.Workers(), w)
		}
		// Repeat each pool size a few times: a race that perturbs virtual
		// time is unlikely to strike the first run.
		for rep := 0; rep < 3; rep++ {
			got, err := rt.Run(wideJob("wide", 16))
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Makespan != want.Makespan {
				t.Fatalf("workers=%d: makespan %v != %v", w, got.Makespan, want.Makespan)
			}
			if !reflect.DeepEqual(got.PeakDeviceBytes, want.PeakDeviceBytes) {
				t.Fatalf("workers=%d: peak %v != %v", w, got.PeakDeviceBytes, want.PeakDeviceBytes)
			}
			if !reflect.DeepEqual(got.FinalOutputs, want.FinalOutputs) {
				t.Fatalf("workers=%d: final outputs %v != %v", w, got.FinalOutputs, want.FinalOutputs)
			}
			if !reflect.DeepEqual(got.Tasks, want.Tasks) {
				for id, tr := range want.Tasks {
					if !reflect.DeepEqual(got.Tasks[id], tr) {
						t.Fatalf("workers=%d: task %s: %+v != %+v", w, tr.Task, got.Tasks[id], tr)
					}
				}
				t.Fatalf("workers=%d: task reports diverge", w)
			}
			// Everything else too — batch metadata, attempts, scheduler and
			// placer names: the whole report is a pure function of the job.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: full report diverges:\n%+v\n!=\n%+v", w, got, want)
			}
		}
		if rt.Regions().Live() != 0 {
			t.Fatalf("workers=%d leaked %d regions", w, rt.Regions().Live())
		}
	}
}

// drainWorkerCounts are the pool sizes the drain tests run at: one slot
// (every task but the first is a continuation of the goroutine that retired
// its predecessor), a few, and the host's parallelism.
func drainWorkerCounts() []int { return []int{1, 4, goruntime.GOMAXPROCS(0)} }

// requireNoLeak fails if the runtime still holds a region or a device byte.
func requireNoLeak(t *testing.T, rt *Runtime, after string) {
	t.Helper()
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions after %s", live, after)
	}
	for dev, bytes := range rt.Regions().DeviceBytes() {
		if bytes != 0 {
			t.Errorf("device %s holds %d bytes after %s", dev, bytes, after)
		}
	}
}

// TestWavefrontFaultDrainsClean injects a fault into a mid-rank branch
// while the wavefront is wide open: the surfaced error must be that task's
// (min-rank first-error-wins), in-flight siblings must drain, and no region
// may leak — device bytes return to zero.
func TestWavefrontFaultDrainsClean(t *testing.T) {
	for _, workers := range append(drainWorkerCounts(), 8) {
		inj := fault.NewInjector(1, 0, 1)
		inj.Kill("branch07", 1)
		rt, err := New(ExecConfig{Workers: workers, Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Run(wideJob("faulty", 16))
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("workers=%d: err = %v, want ErrInjected", workers, err)
		}
		if !strings.Contains(err.Error(), "branch07") {
			t.Errorf("workers=%d: err = %v, want the killed task surfaced", workers, err)
		}
		requireNoLeak(t, rt, "mid-wavefront fault")
	}
}

// TestWavefrontBodyFailureDrainsClean fails two task bodies of the wide
// diamond at run time — unlike an injected verdict, which is known before the
// first launch, a body error reaches the dispatcher only when the goroutine
// that ran it retires it, which is also where that goroutine picks its next
// task. The lower of the two ranks must surface at every pool size, fenced
// siblings above it must abort and drain, and nothing may leak.
func TestWavefrontBodyFailureDrainsClean(t *testing.T) {
	boom := errors.New("body failed")
	for _, workers := range drainWorkerCounts() {
		j := wideJob("bodyfail", 16)
		for _, id := range []string{"branch05", "branch11"} {
			id := id
			bad := j.Task("bad-"+id, dataflow.Props{Ops: 1e4}, func(dataflow.Ctx) error {
				return fmt.Errorf("%s: %w", id, boom)
			})
			tk, _ := j.Get(id)
			tk.Then(bad)
		}
		rt, err := New(ExecConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Run(j)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad-branch05") {
			t.Fatalf("workers=%d: err = %v, want bad-branch05's failure", workers, err)
		}
		requireNoLeak(t, rt, "body failure")
	}
}

// TestDriveReusesPool drives one batch after another on one pool, as an epoch
// worker does: each batch — a wide job, one that fails halfway, a pipeline —
// reports what the first did, and drive hands the pool back idle, every slot
// free and no member attached, whether its members succeeded or failed.
func TestDriveReusesPool(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := newWavePool(rt.workers)
	var first []string
	for round := uint64(1); round <= 3; round++ {
		jobs := []*dataflow.Job{wideJob("wide", 8), failingWarmer("fail"), pipelineJob("pipe")}
		members := make([]member, len(jobs))
		for i, j := range jobs {
			schedule, err := rt.sched.Schedule(j, rt.topo)
			if err != nil {
				t.Fatal(err)
			}
			g, err := j.Graph()
			if err != nil {
				t.Fatal(err)
			}
			members[i].r = rt.newRun(j, g, schedule, round*10+uint64(i), nil)
		}
		got := make([]string, len(jobs))
		rt.drive(p, nil, members, func(i int, o outcome) {
			if o.err != nil {
				got[i] = o.err.Error()
			} else {
				got[i] = o.rep.String()
			}
		})
		if !strings.Contains(got[1], errWarmerFailed.Error()) {
			t.Fatalf("round %d: the failing job settled with %q", round, got[1])
		}
		if p.slots != rt.workers || len(p.members) != 0 {
			t.Fatalf("round %d: drive left the pool with %d of %d slots free and %d members", round, p.slots, rt.workers, len(p.members))
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("round %d on a reused pool reports\n%v\nround 1\n%v", round, got, first)
		}
	}
	requireNoLeak(t, rt, "reused pool")
}

// TestWavefrontCancellationDrainsClean cancels a submission from inside a
// running task body: the wavefront must stop dispatching, drain, release
// every region, and surface the context error to the submitter.
func TestWavefrontCancellationDrainsClean(t *testing.T) {
	for _, workers := range drainWorkerCounts() {
		ctx, cancel := context.WithCancel(context.Background())
		j := dataflow.NewJob("cancelme")
		first := j.Task("first", dataflow.Props{Ops: 1e4, OutputBytes: 1 << 10}, func(c dataflow.Ctx) error {
			cancel() // the submission dies while its own DAG is mid-flight
			return nil
		})
		for i := 0; i < 8; i++ {
			tk := j.Task(fmt.Sprintf("tail%d", i), dataflow.Props{Ops: 1e4}, func(c dataflow.Ctx) error {
				if _, err := c.Scratch("s", 4<<10); err != nil {
					return err
				}
				return nil
			})
			first.Then(tk)
		}
		s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 1, ExecConfig: ExecConfig{Workers: workers}})
		_, err := s.Submit(ctx, j)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		requireNoLeak(t, s.Runtime(), "cancellation")
	}
}

// goroutineID names the calling goroutine (the number in its stack header).
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:goruntime.Stack(buf[:], false)]))[1]
}

// recordingChain builds a depth-task chain whose bodies note which goroutine
// ran them.
func recordingChain(name string, depth int, seen *sync.Map) *dataflow.Job {
	j := dataflow.NewJob(name)
	var prev *dataflow.Task
	for i := 0; i < depth; i++ {
		tk := j.Task(fmt.Sprintf("t%02d", i), dataflow.Props{Ops: 1e4, OutputBytes: 1 << 10}, func(dataflow.Ctx) error {
			seen.Store(goroutineID(), true)
			return nil
		})
		if prev != nil {
			prev.Then(tk)
		}
		prev = tk
	}
	return j
}

func countKeys(m *sync.Map) (n int) {
	m.Range(func(any, any) bool { n++; return true })
	return n
}

// TestTaskGoroutineRunsToCompletion: with one worker slot, the goroutine
// that retires a task is the one that runs the next — a 64-task chain is one
// goroutine, not 64, and so is a whole overlapped batch of chains, since the
// continuation follows the pool's pick across members.
func TestTaskGoroutineRunsToCompletion(t *testing.T) {
	var solo sync.Map
	rt, err := New(ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(recordingChain("chain", 64, &solo)); err != nil {
		t.Fatal(err)
	}
	if n := countKeys(&solo); n != 1 {
		t.Errorf("a 64-task chain at Workers=1 ran on %d goroutines, want 1", n)
	}

	var batch sync.Map
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 8, QueueDepth: 16, Block: true, ExecConfig: ExecConfig{Workers: 1}})
	jobs := make([]*dataflow.Job, 4)
	for i := range jobs {
		jobs[i] = recordingChain(fmt.Sprintf("chain%d", i), 16, &batch)
	}
	for i, tk := range submitOneBatch(t, s, jobs) {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.BatchSize != len(jobs) {
			t.Fatalf("job %d ran in a batch of %d, want %d", i, rep.BatchSize, len(jobs))
		}
	}
	if n := countKeys(&batch); n != 1 {
		t.Errorf("an overlapped batch of four 16-task chains at Workers=1 ran on %d goroutines, want 1", n)
	}
}

// benchWideJob is the speedup benchmark's fan-out DAG: the source hands no
// region to its branches (OutputBytes 0) and each branch touches only
// private scratch, so no coherence fence serializes the wavefront and the
// measured speedup is the executor's, not the workload's. Each branch does
// real payload copies plus a wall-clock stall emulating the blocking far
// memory / accelerator-DMA wait a disaggregated task spends most of its
// life in — the latency the executor overlaps even on a single core.
func benchWideJob(name string, width int, payload int64, stall time.Duration) *dataflow.Job {
	j := dataflow.NewJob(name)
	src := j.Task("src", dataflow.Props{Ops: 1e4}, nil)
	sink := j.Task("sink", dataflow.Props{Ops: 1e4}, nil)
	for i := 0; i < width; i++ {
		t := j.Task(fmt.Sprintf("branch%02d", i), dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
			scratch, err := ctx.Scratch("buf", payload)
			if err != nil {
				return err
			}
			chunk := make([]byte, 64<<10)
			for b := range chunk {
				chunk[b] = byte(b * 131)
			}
			for off := int64(0); off < payload; off += int64(len(chunk)) {
				now, err := scratch.WriteAt(ctx.Now(), off, chunk)
				if err != nil {
					return err
				}
				ctx.Wait(now)
			}
			back := make([]byte, 64<<10)
			now, err := scratch.ReadAt(ctx.Now(), 0, back)
			if err != nil {
				return err
			}
			ctx.Wait(now)
			if stall > 0 {
				time.Sleep(stall)
			}
			ctx.Charge(1e6)
			return nil
		})
		src.Then(t)
		t.Then(sink)
	}
	return j
}

// benchWorkerCounts is {1, 2, 4, GOMAXPROCS} deduplicated in order, so
// single-core hosts don't produce duplicate sub-benchmark names.
func benchWorkerCounts() []int {
	seen := map[int]bool{}
	var out []int
	for _, w := range []int{1, 2, 4, goruntime.GOMAXPROCS(0)} {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// benchRefMakespan memoizes the Workers=1 reference makespan so every
// sub-benchmark can assert virtual time is worker-count-invariant.
var benchRefMakespan struct {
	once sync.Once
	d    time.Duration
}

// BenchmarkWideDAGParallel measures wall-clock execution of a fan-out-16
// DAG with real 4 MiB payload writes per branch across wavefront pool
// sizes. Virtual makespan must be identical at every size; wall-clock time
// should fall as workers are added (the acceptance gate records ≥2× at
// workers=4 over workers=1).
func BenchmarkWideDAGParallel(b *testing.B) {
	const width, payload, stall = 16, 1 << 20, 5 * time.Millisecond
	benchRefMakespan.once.Do(func() {
		rt, err := New(ExecConfig{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(benchWideJob("wide-ref", width, payload, stall))
		if err != nil {
			b.Fatal(err)
		}
		benchRefMakespan.d = rep.Makespan
	})
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			rt, err := New(ExecConfig{Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := rt.Run(benchWideJob("wide", width, payload, stall))
				if err != nil {
					b.Fatal(err)
				}
				if rep.Makespan != benchRefMakespan.d {
					b.Fatalf("makespan %v != workers=1 reference %v", rep.Makespan, benchRefMakespan.d)
				}
			}
		})
	}
}

// BenchmarkServeParallel pushes a burst of jobs through the serving path
// with the wavefront executor under each pool size — the end-to-end figure
// for the batching + wavefront combination.
func BenchmarkServeParallel(b *testing.B) {
	counts := []int{1}
	if n := goruntime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s, err := NewServer(ServerConfig{ExecConfig: ExecConfig{Workers: w}, EpochWorkers: 2, MaxBatch: 4, Block: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close(context.Background()) //nolint:errcheck
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for k := 0; k < 8; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						if _, err := s.Submit(context.Background(), benchWideJob(fmt.Sprintf("serve%d", k), 8, 1<<20, time.Millisecond)); err != nil {
							b.Error(err)
						}
					}(k)
				}
				wg.Wait()
			}
		})
	}
}
