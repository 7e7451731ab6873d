package core_test

// The entry-point invariant: which front door a job came through does not
// show in its report. The same job with the same injector, checkpoint store
// default and recovery policy reports the same bytes and the same recovery
// accounting through Runtime.Run, through a Server alone in its batch,
// through a Server beside seven batch mates, and through a two-shard Cluster
// — because all of them execute it in one drive loop with one retry ladder
// (exec.go), and the injector's verdict is a function of the job's name and
// task, not of the submission. The test lives outside package core so it can
// import the cluster.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/workload"
)

// victim is the task the injector kills in the synthetic shapes: a name no
// batch mate's task shares, since a targeted kill matches by task name in
// every submission. Rate-based sites are TestDoorsAgreeUnderRateFaults'.
const victim = "victim"

// entryShape is a job of the matrix and the task its kill targets.
type entryShape struct {
	build  func(name string) *dataflow.Job
	victim string
}

// Every synthetic task is pinned to the FPGA, whose eight cores each of those
// shapes outnumbers: by the time the victim fails every core's clock has
// moved, so a retry that continues on the job's clocks and one that restarts
// on idle ones report different bytes.
var entryShapes = map[string]entryShape{
	// s0 → … → s8 → victim: everything before the failure is restored.
	"chain": {func(name string) *dataflow.Job {
		j := dataflow.NewJob(name)
		prev := j.Task("s0", entryProps(2e6, 16<<10), nil)
		for i := 1; i < 9; i++ {
			t := j.Task(fmt.Sprintf("s%d", i), entryProps(2e6, 16<<10), nil)
			prev.Then(t)
			prev = t
		}
		prev.Then(j.Task(victim, entryProps(1e6, 0), nil))
		return j
	}, victim},
	// src → twelve leaves, the victim in the middle of the ranks: at
	// Workers > 1 leaves above it run out of order and are rewound.
	"fan-out": {func(name string) *dataflow.Job {
		j := dataflow.NewJob(name)
		src := j.Task("src", entryProps(1e6, 32<<10), nil)
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("leaf%02d", i)
			if i == 9 {
				id = victim
			}
			src.Then(j.Task(id, entryProps(float64(1+i)*5e5, 0), nil))
		}
		return j
	}, victim},
	// src → ten branches → victim: the join fails with every input checkpointed.
	"diamond": {func(name string) *dataflow.Job {
		j := dataflow.NewJob(name)
		src := j.Task("src", entryProps(1e6, 32<<10), nil)
		join := j.Task(victim, entryProps(1e6, 0), nil)
		for i := 0; i < 10; i++ {
			b := j.Task(fmt.Sprintf("b%d", i), entryProps(float64(1+i)*1e6, 8<<10), nil)
			src.Then(b)
			b.Then(join)
		}
		return j
	}, victim},
	// scan → filter → hash-aggregate → hash-join, the join killed: the
	// aggregate created the agg-index global the join reads, and scan the
	// admission latch, so the retry re-executes both rather than restoring
	// them, and restores filter alone.
	"dbms": {func(string) *dataflow.Job { return workload.DBMS(workload.DefaultDBMS()) }, "hash-join"},
}

func entryProps(ops float64, out int64) dataflow.Props {
	return dataflow.Props{Compute: dataflow.OnFPGA, Ops: ops, OutputBytes: out}
}

// entryMate is a batch mate: a small chain sharing no task name with the shapes.
func entryMate(i int) *dataflow.Job {
	j := dataflow.NewJob(fmt.Sprintf("mate%d", i))
	a := j.Task("m0", dataflow.Props{Ops: 1e6, OutputBytes: 4 << 10}, nil)
	b := j.Task("m1", dataflow.Props{Ops: 1e6}, nil)
	a.Then(b)
	return j
}

// entryCase is one cell of the matrix: a job, run through every door with
// one injector. A nil policy is no recovery at all: plain Run(job), and
// servers built without one.
type entryCase struct {
	job     func() *dataflow.Job
	workers int
	pol     *core.RecoveryPolicy
	inj     *fault.Injector
}

func (c entryCase) exec() core.ExecConfig {
	return core.ExecConfig{Inject: c.inj, Workers: c.workers}
}

// entryPoints are the front doors. Each builds a fresh stack, runs the case's
// job through it once and tears the stack down.
var entryPoints = []struct {
	name string
	run  func(t *testing.T, c entryCase) *core.Report
}{
	{"Run", func(t *testing.T, c entryCase) *core.Report {
		rt, err := core.New(c.exec())
		if err != nil {
			t.Fatal(err)
		}
		var rep *core.Report
		if c.pol == nil {
			rep, err = rt.Run(c.job())
		} else {
			rep, err = rt.Run(c.job(), *c.pol)
		}
		if err != nil {
			t.Fatal(err)
		}
		for name := range rt.Telemetry().Counters() {
			if strings.Contains(name, "server_") {
				t.Errorf("solo run counted %s", name)
			}
		}
		return rep
	}},
	{"Server.Submit alone", func(t *testing.T, c entryCase) *core.Report {
		s, err := core.NewServer(core.ServerConfig{ExecConfig: c.exec(), Recovery: c.pol})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(context.Background()) //nolint:errcheck
		rep, err := s.Submit(context.Background(), c.job())
		if err != nil {
			t.Fatal(err)
		}
		if rep.BatchSize != 1 {
			t.Fatalf("batch of %d, want the job alone", rep.BatchSize)
		}
		return rep
	}},
	{"Server.Submit with 7 mates", func(t *testing.T, c entryCase) *core.Report {
		s, err := core.NewServer(core.ServerConfig{
			ExecConfig: c.exec(), Recovery: c.pol,
			EpochWorkers: 1, MaxBatch: 8, QueueDepth: 16, Block: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(context.Background()) //nolint:errcheck
		// Park the only epoch worker inside a holder job, queue the batch
		// behind it, release: the worker collects all eight at once.
		started, release := make(chan struct{}), make(chan struct{})
		holder := dataflow.NewJob("holder")
		holder.Task("hold", dataflow.Props{}, func(dataflow.Ctx) error {
			close(started)
			<-release
			return nil
		})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), holder); err != nil {
				t.Errorf("holder: %v", err)
			}
		}()
		<-started
		var tk *core.Ticket
		for i := 0; i < 8; i++ {
			j := entryMate(i)
			if i == 4 { // mates before it and after it
				j = c.job()
			}
			mtk, err := s.SubmitAsync(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			if i == 4 {
				tk = mtk
			}
		}
		close(release)
		wg.Wait()
		rep, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.BatchSize != 8 || rep.BatchIndex != 4 {
			t.Fatalf("batch position %d of %d, want 4 of 8", rep.BatchIndex, rep.BatchSize)
		}
		return rep
	}},
	{"Cluster.Submit on 2 shards", func(t *testing.T, c entryCase) *core.Report {
		cl, err := shard.NewCluster(shard.Config{
			Shards: 2, Server: core.ServerConfig{ExecConfig: c.exec(), Recovery: c.pol},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close(context.Background()) //nolint:errcheck
		rep, err := cl.Submit(context.Background(), c.job())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shard == "" {
			t.Fatal("report names no shard")
		}
		return rep
	}},
}

// entryView is what must not depend on the entry point.
type entryView struct {
	Report   string
	Attempts int
	Skipped  int
	Replayed int
}

func viewOf(r *core.Report) entryView {
	return entryView{r.String(), r.Attempts, r.SkippedTasks, r.ReplayedTasks}
}

func TestEntryPointsAgree(t *testing.T) {
	for shape, sh := range entryShapes {
		job := func() *dataflow.Job { return sh.build("job") }
		killed := fault.NewInjector(1, 0, 1)
		killed.Kill(sh.victim, 1)
		for _, workers := range []int{1, 4} {
			cases := []entryCase{{job: job, workers: workers}} // fault-free, no policy: plain Run(job)
			for _, partial := range []bool{false, true} {
				pol := &core.RecoveryPolicy{PartialReplay: partial}
				cases = append(cases,
					entryCase{job: job, workers: workers, pol: pol, inj: killed},
					entryCase{job: job, workers: workers, pol: pol})
			}
			for _, c := range cases {
				name := fmt.Sprintf("%s/workers=%d/plain", shape, workers)
				if c.pol != nil {
					name = fmt.Sprintf("%s/workers=%d/partial=%v/kill=%v", shape, workers, c.pol.PartialReplay, c.inj != nil)
				}
				t.Run(name, func(t *testing.T) { checkEntryCase(t, c) })
			}
		}
	}
}

// TestDoorsAgreeUnderRateFaults serves hospital at 30 % seeded fault sites
// through every door, each door under one injector per seed: a site is drawn
// by the job's name, so the job fails and recovers alike at every door.
func TestDoorsAgreeUnderRateFaults(t *testing.T) {
	pol := &core.RecoveryPolicy{MaxAttempts: 8}
	job := func() *dataflow.Job { return workload.Hospital(workload.DefaultHospital()) }
	retried := 0
	for seed := uint64(1); seed <= 20; seed++ {
		c := entryCase{job: job, workers: 2, pol: pol, inj: fault.NewInjector(seed, 0.3, 1)}
		if agreeAtEveryDoor(t, fmt.Sprintf("seed %d", seed), c).Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no seed failed a task, so no recovery was compared")
	}
}

// agreeAtEveryDoor runs c through every entry point and returns what the first
// reported, failing the test where another door's view differs from it.
func agreeAtEveryDoor(t *testing.T, what string, c entryCase) entryView {
	t.Helper()
	var want entryView
	for i, ep := range entryPoints {
		got := viewOf(ep.run(t, c))
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s differs from %s:\n%+v\n!=\n%+v", what, ep.name, entryPoints[0].name, got, want)
		}
	}
	return want
}

func checkEntryCase(t *testing.T, c entryCase) {
	want := agreeAtEveryDoor(t, "", c)
	tasks := strings.Count(want.Report, " on ")
	if c.inj == nil {
		if want.Attempts != 1 || want.Skipped != 0 || want.Replayed != 0 {
			t.Errorf("fault-free run shows recovery: %+v", want)
		}
		return
	}
	if want.Attempts != 2 || want.Skipped == 0 || want.Skipped+want.Replayed != tasks {
		t.Errorf("recovery accounting: %d attempts, %d skipped + %d replayed of %d tasks", want.Attempts, want.Skipped, want.Replayed, tasks)
	}
}
