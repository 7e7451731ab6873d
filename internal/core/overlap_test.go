package core

// Tests for overlapped batch execution: whole jobs of one serving batch run
// concurrently on the shared worker pool, yet every member's report stays a
// pure function of its own job — byte-identical to a solo run at any pool
// size — and a failing or retrying batch mate leaves the others untouched.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// submitOneBatch forces the given jobs into a single overlapped batch: a
// blocking holder parks the server's only epoch worker, the jobs are
// admitted asynchronously while it is held, and releasing the holder lets
// the next collection sweep them all up in submission order.
func submitOneBatch(t *testing.T, s *Server, jobs []*dataflow.Job) []*Ticket {
	t.Helper()
	return submitOneBatchIn(t, s, jobs, nil)
}

// submitOneBatchIn is submitOneBatch with job i submitted under ctxs[i], when
// ctxs has one.
func submitOneBatchIn(t *testing.T, s *Server, jobs []*dataflow.Job, ctxs []context.Context) []*Ticket {
	t.Helper()
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), blockingJob("holder", started, release)); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-started // the single epoch worker is parked inside the holder's task
	tks := make([]*Ticket, len(jobs))
	for i, j := range jobs {
		ctx := context.Background()
		if i < len(ctxs) && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		tk, err := s.SubmitAsync(ctx, j)
		if err != nil {
			t.Fatalf("SubmitAsync %s: %v", j.Name(), err)
		}
		tks[i] = tk
	}
	close(release)
	wg.Wait()
	return tks
}

// overlapMixJobs is the determinism workload: two fan-out jobs exercising
// coherence fences, private scratch, and fence-gated job-globals, plus two
// linear pipelines, all competing for one shared pool.
func overlapMixJobs() []*dataflow.Job {
	return []*dataflow.Job{
		wideJob("wide-a", 8),
		pipelineJob("pipe-b"),
		wideJob("wide-c", 6),
		pipelineJob("pipe-d"),
	}
}

// requireSoloEqual asserts the served report matches the job's solo Run on
// an idle runtime in every virtual dimension — the overlap mode's isolation
// contract (batch fields are serving-side metadata and differ by design).
func requireSoloEqual(t *testing.T, label string, got, solo *Report) {
	t.Helper()
	if got.Makespan != solo.Makespan {
		t.Fatalf("%s: makespan %v != solo %v", label, got.Makespan, solo.Makespan)
	}
	if !reflect.DeepEqual(got.Tasks, solo.Tasks) {
		for id, tr := range solo.Tasks {
			if !reflect.DeepEqual(got.Tasks[id], tr) {
				t.Fatalf("%s: task %s: %+v != solo %+v", label, tr.Task, got.Tasks[id], tr)
			}
		}
		t.Fatalf("%s: task reports diverge from solo", label)
	}
	if !reflect.DeepEqual(got.PeakDeviceBytes, solo.PeakDeviceBytes) {
		t.Fatalf("%s: peak %v != solo %v", label, got.PeakDeviceBytes, solo.PeakDeviceBytes)
	}
	if !reflect.DeepEqual(got.FinalOutputs, solo.FinalOutputs) {
		t.Fatalf("%s: final outputs %v != solo %v", label, got.FinalOutputs, solo.FinalOutputs)
	}
}

// TestServeOverlapDeterministicAcrossWorkerCounts is the overlapped-mode
// determinism gate: a four-job batch executed on pools of 1, 4, and
// GOMAXPROCS workers must produce byte-identical per-job reports, each
// additionally identical (modulo batch metadata) to the job's solo Run.
func TestServeOverlapDeterministicAcrossWorkerCounts(t *testing.T) {
	solo := make([]*Report, 0, 4)
	for _, j := range overlapMixJobs() {
		rt, err := New(ExecConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(j)
		if err != nil {
			t.Fatal(err)
		}
		solo = append(solo, rep)
	}

	var want []*Report
	for _, w := range []int{1, 4, goruntime.GOMAXPROCS(0)} {
		// Repeat each pool size a few times: a race that perturbs virtual
		// time is unlikely to strike the first run.
		for rep := 0; rep < 3; rep++ {
			s, err := NewServer(ServerConfig{
				ExecConfig: ExecConfig{Workers: w}, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 16, Block: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			tks := submitOneBatch(t, s, overlapMixJobs())
			got := make([]*Report, len(tks))
			for i, tk := range tks {
				r, err := tk.Wait(context.Background())
				if err != nil {
					t.Fatalf("workers=%d job %d: %v", w, i, err)
				}
				got[i] = r
			}
			if err := s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			if live := s.Runtime().Regions().Live(); live != 0 {
				t.Fatalf("workers=%d: leaked %d regions", w, live)
			}
			for i, r := range got {
				if r.BatchSize != len(got) || r.BatchIndex != i {
					t.Fatalf("workers=%d job %d: batch fields = (%d,%d), want (%d,%d)",
						w, i, r.BatchSize, r.BatchIndex, len(got), i)
				}
				requireSoloEqual(t, fmt.Sprintf("workers=%d job %d", w, i), r, solo[i])
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("workers=%d rep=%d job %d: full report diverges:\n%+v\n!=\n%+v",
						w, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestServeOverlapFaultIsolation fails one member mid-batch while its mates
// are in flight on the same pool: only the bad submitter sees the error,
// the mates' reports stay byte-identical to solo runs, and the batch drains
// without leaking a region.
func TestServeOverlapFaultIsolation(t *testing.T) {
	soloA := mustSoloRun(t, wideJob("good-a", 8))
	soloC := mustSoloRun(t, wideJob("good-c", 6))

	boom := errors.New("boom")
	bad := dataflow.NewJob("bad")
	bad.Task("explode", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		if _, err := ctx.Scratch("tmp", 1<<16); err != nil {
			return err
		}
		return boom
	})

	s, err := NewServer(ServerConfig{
		ExecConfig: ExecConfig{Workers: 4}, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 16, Block: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tks := submitOneBatch(t, s, []*dataflow.Job{wideJob("good-a", 8), bad, wideJob("good-c", 6)})

	repA, errA := tks[0].Wait(context.Background())
	_, errBad := tks[1].Wait(context.Background())
	repC, errC := tks[2].Wait(context.Background())
	if errA != nil || errC != nil {
		t.Fatalf("good jobs failed: %v, %v", errA, errC)
	}
	if !errors.Is(errBad, boom) {
		t.Fatalf("bad job err = %v, want %v", errBad, boom)
	}
	requireSoloEqual(t, "good-a", repA, soloA)
	requireSoloEqual(t, "good-c", repC, soloC)
	for i, r := range []*Report{repA, nil, repC} {
		if r == nil {
			continue
		}
		if r.BatchSize != 3 || r.BatchIndex != i {
			t.Errorf("job %d: batch fields = (%d,%d), want (3,%d)",
				i, r.BatchSize, r.BatchIndex, i)
		}
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt := s.Runtime()
	tel := rt.Telemetry()
	if got := tel.Counter(telemetry.LayerRuntime, "server_failed"); got != 1 {
		t.Errorf("server_failed = %d, want 1", got)
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions after mid-batch failure", live)
	}
	for dev, bytes := range rt.Regions().DeviceBytes() {
		if bytes != 0 {
			t.Errorf("device %s holds %d bytes after drain", dev, bytes)
		}
	}
}

func mustSoloRun(t *testing.T, j *dataflow.Job) *Report {
	t.Helper()
	rt, err := New(ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestServeOverlapRecoveryIsolation retries one member inside a live
// overlapped batch: the flaky job recovers on its second attempt while its
// mates' reports stay byte-identical to the same batch served with no fault
// at all.
func TestServeOverlapRecoveryIsolation(t *testing.T) {
	batch := func() []*dataflow.Job {
		return []*dataflow.Job{wideJob("good-a", 8), pipelineJob("flaky"), wideJob("good-b", 6)}
	}
	serve := func(inj *fault.Injector) ([]*Report, []error, *Server) {
		s := newRecoveryServer(t, inj,
			RecoveryPolicy{MaxAttempts: 2},
			ServerConfig{EpochWorkers: 1, MaxBatch: 8, QueueDepth: 16, Block: true})
		tks := submitOneBatch(t, s, batch())
		reps := make([]*Report, len(tks))
		errs := make([]error, len(tks))
		for i, tk := range tks {
			reps[i], errs[i] = tk.Wait(context.Background())
		}
		return reps, errs, s
	}

	clean, cleanErrs, _ := serve(fault.NewInjector(1, 0, 1)) // no faults
	inj := fault.NewInjector(1, 0, 1)
	inj.Kill("ingest", 1) // flaky's first task dies once, mid-batch
	reps, errs, s := serve(inj)

	for i := range cleanErrs {
		if cleanErrs[i] != nil || errs[i] != nil {
			t.Fatalf("job %d: errs = %v / %v, want success", i, cleanErrs[i], errs[i])
		}
	}
	if reps[1].Attempts != 2 {
		t.Errorf("flaky attempts = %d, want 2", reps[1].Attempts)
	}
	// The mates must be oblivious to the mid-batch retry: identical reports
	// whether their neighbour failed-and-recovered or sailed through.
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(reps[i], clean[i]) {
			t.Errorf("job %d: report differs between faulty and clean batches:\n%+v\n!=\n%+v",
				i, reps[i], clean[i])
		}
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	tel := s.Runtime().Telemetry()
	if got := tel.Counter(telemetry.LayerFault, "job_retries"); got != 1 {
		t.Errorf("job_retries = %d, want 1", got)
	}
	if got := s.Checkpointer().Snapshots(); got != 0 {
		t.Errorf("snapshots after drain = %d, want 0", got)
	}
	if live := s.Runtime().Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
}

// cancelOnPlan is a scheduler that ends one job's context as it plans it:
// after collect and runBatch's pre-planning drop have passed the job live,
// and before drive joins it.
type cancelOnPlan struct {
	sched.Scheduler
	job    string
	cancel context.CancelFunc
}

func (c cancelOnPlan) Schedule(j *dataflow.Job, topo *topology.Topology) (*sched.Schedule, error) {
	if j.Name() == c.job {
		c.cancel()
	}
	return c.Scheduler.Schedule(j, topo)
}

// TestJoinTimeDrainSettlesOnce serves a batch whose middle member drains as
// it joins the pool, before any of its tasks launches: its rank-0 task fails
// the injector's pre-pass (once without recovery, once recovered by a retry,
// on every attempt with recovery), or its context ends after collect, while
// its batch is planned. The member settles exactly once, under the right
// counter and with the right error, and its mates' reports are byte-identical
// to their solo runs.
func TestJoinTimeDrainSettlesOnce(t *testing.T) {
	cases := []struct {
		name     string
		kills    int             // pre-pass failures of the member's rank-0 task
		pol      *RecoveryPolicy // nil: no recovery
		cancel   bool            // the member's context ends as it is planned
		counter  string          // the serving counter the member settles under
		err      string          // in the member's error; "" when it succeeds
		attempts int
	}{
		{name: "pre-pass kill", kills: 1, counter: "server_failed", err: fault.ErrInjected.Error()},
		{name: "pre-pass kill, recovered", kills: 1, pol: &RecoveryPolicy{MaxAttempts: 2}, counter: "server_recovered", attempts: 2},
		{name: "pre-pass kill every attempt", kills: 99, pol: &RecoveryPolicy{MaxAttempts: 2}, counter: "server_failed", err: "failed after 2 attempts"},
		{name: "context ends before drive", cancel: true, counter: "server_canceled", err: context.Canceled.Error()},
	}
	mates := func() []*dataflow.Job { return []*dataflow.Job{wideJob("mate-a", 8), wideJob("mate-c", 6)} }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A mate's solo run checkpoints as it does in the batch, or not.
			var solo []*Report
			for _, j := range mates() {
				rt, err := New(ExecConfig{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				var rep *Report
				if c.pol == nil {
					rep, err = rt.Run(j)
				} else {
					rep, err = rt.Run(j, *c.pol)
				}
				if err != nil {
					t.Fatal(err)
				}
				solo = append(solo, rep)
			}
			inj := fault.NewInjector(1, 0, 1)
			if c.kills > 0 {
				inj.Kill("ingest", c.kills) // the member's rank 0; no mate has the name
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := ServerConfig{
				ExecConfig: ExecConfig{Inject: inj, Workers: 4}, Recovery: c.pol,
				EpochWorkers: 1, MaxBatch: 8, QueueDepth: 16, Block: true,
			}
			if c.cancel {
				cfg.Scheduler = cancelOnPlan{Scheduler: sched.HEFT{}, job: "member", cancel: cancel}
			}
			s := newTestServer(t, cfg)
			m := mates()
			tks := submitOneBatchIn(t, s, []*dataflow.Job{m[0], pipelineJob("member"), m[1]},
				[]context.Context{nil, ctx})
			rep, err := tks[1].Wait(context.Background())
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("member: %v", err)
			case c.err == "" && rep.Attempts != c.attempts:
				t.Errorf("member settled after %d attempts, want %d", rep.Attempts, c.attempts)
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Errorf("member settled with %v, want an error naming %q", err, c.err)
			}
			for i, k := range []int{0, 2} {
				mate, err := tks[k].Wait(context.Background())
				if err != nil {
					t.Fatalf("mate %d: %v", k, err)
				}
				if mate.String() != solo[i].String() {
					t.Errorf("mate %d reports\n%s\nsolo\n%s", k, mate, solo[i])
				}
				requireSoloEqual(t, fmt.Sprintf("mate %d", k), mate, solo[i])
			}
			if err := s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			tel := s.Runtime().Telemetry()
			want := map[string]int64{"server_completed": 3, "server_failed": 0, "server_canceled": 0, "server_recovered": 0}
			if c.err == "" {
				want["server_completed"]++ // the holder, both mates and the member
			}
			want[c.counter]++
			for name, n := range want {
				if got := tel.Counter(telemetry.LayerRuntime, name); got != n {
					t.Errorf("%s = %d, want %d", name, got, n)
				}
			}
			if live := s.Runtime().Regions().Live(); live != 0 {
				t.Errorf("leaked %d regions", live)
			}
		})
	}
}

// TestBatchMatesAllInFlight is the overlap half of the pump: with a pool of
// N workers, all N members of one batch have a task in flight at once. Each
// member is one task whose body waits at a barrier until all N have arrived,
// so the batch completes only if the pool runs every member side by side.
func TestBatchMatesAllInFlight(t *testing.T) {
	const n = 6
	var arrived atomic.Int32
	all := make(chan struct{})
	barrier := func(dataflow.Ctx) error {
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(30 * time.Second):
			return fmt.Errorf("only %d of %d batch mates were ever in flight together", arrived.Load(), n)
		}
	}
	jobs := make([]*dataflow.Job, n)
	for i := range jobs {
		jobs[i] = dataflow.NewJob(fmt.Sprintf("mate%d", i))
		jobs[i].Task("wait", dataflow.Props{Ops: 1e3}, barrier)
	}
	s := newTestServer(t, ServerConfig{ExecConfig: ExecConfig{Workers: n}, EpochWorkers: 1, MaxBatch: n, QueueDepth: 2 * n, Block: true})
	for i, tk := range submitOneBatch(t, s, jobs) {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("mate %d: %v", i, err)
		}
		if rep.BatchSize != n {
			t.Fatalf("mate %d ran in a batch of %d, want %d", i, rep.BatchSize, n)
		}
	}
}

// TestTicketDoneAndID covers the asynchronous handle itself: Done closes
// exactly when the report is ready, Wait honours its context, and IDs are
// unique and ascending in admission order.
func TestTicketDoneAndID(t *testing.T) {
	s := newTestServer(t, ServerConfig{EpochWorkers: 1, MaxBatch: 4, QueueDepth: 8, Block: true})
	release, _ := holdWorker(t, s) // tkA cannot settle before the canceled Wait
	tkA, err := s.SubmitAsync(context.Background(), pipelineJob("tk-a"))
	if err != nil {
		t.Fatal(err)
	}
	tkB, err := s.SubmitAsync(context.Background(), pipelineJob("tk-b"))
	if err != nil {
		t.Fatal(err)
	}
	if tkA.ID() == tkB.ID() || tkB.ID() < tkA.ID() {
		t.Errorf("ticket IDs = %d, %d, want unique ascending", tkA.ID(), tkB.ID())
	}
	// Wait with an already-canceled context must not consume the result.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tkA.Wait(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait(canceled) err = %v, want context.Canceled", err)
	}
	release()
	repA, err := tkA.Wait(context.Background())
	if err != nil || repA == nil {
		t.Fatalf("Wait after canceled Wait: rep=%v err=%v", repA, err)
	}
	<-tkA.Done()
	<-tkB.Done()
	if rep, err := tkB.Wait(context.Background()); err != nil || rep == nil {
		t.Fatalf("tkB: rep=%v err=%v", rep, err)
	}
	// A second Wait returns the same settled result.
	again, err := tkA.Wait(context.Background())
	if err != nil || again != repA {
		t.Errorf("repeated Wait: rep=%p want %p, err=%v", again, repA, err)
	}
}

// benchChainJob is a linear depth-stage pipeline with the same real-work
// body as benchWideJob's branches: payload copies through private scratch
// plus a wall-clock stall per stage. Its critical path is the whole job, so
// alone it cannot use a pool — only overlapping it with batch mates can.
func benchChainJob(name string, depth int, payload int64, stall time.Duration) *dataflow.Job {
	j := dataflow.NewJob(name)
	var prev *dataflow.Task
	for i := 0; i < depth; i++ {
		t := j.Task(fmt.Sprintf("stage%02d", i), dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
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
			if stall > 0 {
				time.Sleep(stall)
			}
			ctx.Charge(1e6)
			return nil
		})
		if prev != nil {
			prev.Then(t)
		}
		prev = t
	}
	return j
}

// BenchmarkServeOverlap is the serving throughput of EXPERIMENTS.md A10: a
// mixed batch — two wide fan-outs that can use the pool alone and two serial
// chains that cannot — served on one four-worker pool. Overlap lets the
// chains' stalls hide under the wides' waves (no gate reads its jobs/s:
// TestBatchMatesAllInFlight shows the overlap exactly); every
// member's virtual makespan is additionally asserted identical to its solo
// Workers=1 run — throughput never buys back determinism.
func BenchmarkServeOverlap(b *testing.B) {
	const (
		wideWidth  = 8
		chainDepth = 6
		payload    = 1 << 20
		stall      = 2 * time.Millisecond
	)
	batch := func(iter int) []*dataflow.Job {
		return []*dataflow.Job{
			benchWideJob(fmt.Sprintf("wide%d-0", iter), wideWidth, payload, stall),
			benchChainJob(fmt.Sprintf("chain%d-1", iter), chainDepth, payload, stall),
			benchWideJob(fmt.Sprintf("wide%d-2", iter), wideWidth, payload, stall),
			benchChainJob(fmt.Sprintf("chain%d-3", iter), chainDepth, payload, stall),
		}
	}
	// Solo Workers=1 references: virtual time must be batch- and
	// pool-size-invariant, so job names cannot matter either.
	refs := make([]time.Duration, 4)
	for i, j := range batch(-1) {
		rt, err := New(ExecConfig{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(j)
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = rep.Makespan
	}
	b.Run("overlap", func(b *testing.B) {
		s, err := NewServer(ServerConfig{
			ExecConfig: ExecConfig{Workers: 4}, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 64, Block: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close(context.Background()) //nolint:errcheck
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jobs := batch(i)
			tks := make([]*Ticket, len(jobs))
			for k, j := range jobs {
				tk, err := s.SubmitAsync(context.Background(), j)
				if err != nil {
					b.Fatal(err)
				}
				tks[k] = tk
			}
			for k, tk := range tks {
				rep, err := tk.Wait(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if rep.Makespan != refs[k] {
					b.Fatalf("job %d makespan %v != solo reference %v", k, rep.Makespan, refs[k])
				}
			}
		}
		b.ReportMetric(float64(b.N*len(refs))/b.Elapsed().Seconds(), "jobs/s")
	})
}
