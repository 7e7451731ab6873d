package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// artifactShapes are the jobs the paper artifacts build for themselves, beside
// the workload families: the scheduler ablation's heterogeneous mix, the
// multi-job ablation's 16-way batch on a device preference, and the recovery
// extension's four-stage producer chain.
func artifactShapes() []*dataflow.Job {
	mix := dataflow.NewJob("mix")
	src := mix.Task("src", dataflow.Props{Ops: 1e5, OutputBytes: 1 << 16}, nil)
	sink := mix.Task("sink", dataflow.Props{Ops: 1e5}, nil)
	for i := 0; i < 20; i++ {
		src.Then(mix.Task(fmt.Sprintf("work%02d", i), dataflow.Props{Ops: 4e8, OutputBytes: 1 << 16}, nil)).Then(sink)
	}
	src.Then(mix.Task("gpu-stage", dataflow.Props{Compute: dataflow.OnGPU, Ops: 1e9, OutputBytes: 1 << 20}, nil)).Then(sink)
	jobs := []*dataflow.Job{mix}
	for _, pref := range []dataflow.DevicePref{dataflow.OnCPU, dataflow.OnGPU, dataflow.OnTPU, dataflow.AnyDevice} {
		j := dataflow.NewJob("batch-" + pref.String())
		src := j.Task("scatter", dataflow.Props{Ops: 1e6, OutputBytes: 1 << 14}, nil)
		sink := j.Task("gather", dataflow.Props{Ops: 1e6}, nil)
		for k := 0; k < 16; k++ {
			src.Then(j.Task(fmt.Sprintf("work%02d", k), dataflow.Props{Compute: pref, Ops: 4e8, OutputBytes: 1 << 14}, nil)).Then(sink)
		}
		jobs = append(jobs, j)
	}
	chain := dataflow.NewJob("pipeline")
	prev := chain.Task("stage0", dataflow.Props{Ops: 5e9, OutputBytes: 64 << 10}, nil)
	for i := 1; i < 4; i++ {
		prev = prev.Then(chain.Task(fmt.Sprintf("stage%d", i), dataflow.Props{Ops: 5e9, OutputBytes: 64 << 10}, nil))
	}
	prev.Then(chain.Task("sink", dataflow.Props{Ops: 1e6}, nil))
	return append(jobs, chain)
}

// familyJobs are the five workload families at their default configurations,
// a stream window, and the serving mix's draws with and without real bodies.
func familyJobs() []*dataflow.Job {
	jobs := []*dataflow.Job{
		workload.Hospital(workload.DefaultHospital()),
		workload.DBMS(workload.DefaultDBMS()),
		workload.ML(workload.DefaultML()),
		workload.HPC(workload.DefaultHPC()),
		workload.Graph(workload.DefaultGraph()),
		workload.StreamWindow(workload.DefaultStream(), 0),
	}
	for _, real := range []float64{-1, 1} {
		mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: real})
		for i := 0; i < 32; i++ {
			jobs = append(jobs, mix.Next())
		}
	}
	return jobs
}

// checkPlanIsFresh asks rt for job's plan twice and checks that the second is
// the memo the first left, and that both equal what the scheduler plans and
// EstimateJob prices afresh.
func checkPlanIsFresh(t *testing.T, rt *Runtime, job *dataflow.Job) {
	t.Helper()
	p, err := rt.Plan(job)
	if err != nil {
		t.Fatalf("%s: %v", job.Name(), err)
	}
	if again, err := rt.Plan(job); err != nil || again != p {
		t.Fatalf("%s: a second Plan returned %p (%v), want the memo %p", job.Name(), again, err, p)
	}
	fresh, err := rt.sched.Schedule(job, rt.topo)
	if err != nil {
		t.Fatal(err)
	}
	est, _, err := sched.EstimateJob(job, rt.topo, rt.sched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Schedule, *fresh) {
		t.Errorf("%s under %s: the memoised plan differs from a fresh one:\nmemo  %+v\nfresh %+v", job.Name(), rt.sched.Name(), p.Schedule, *fresh)
	}
	if p.Estimate != est {
		t.Errorf("%s under %s: the memoised estimate is %+v, a fresh one %+v", job.Name(), rt.sched.Name(), p.Estimate, est)
	}
}

// TestMemoisedPlanMatchesFresh: the plan and estimate Runtime.Plan keeps equal
// a fresh plan and estimate, under each built-in scheduler, on the artifacts'
// jobs, the workload families and the serving mix, and under HEFT on the
// integrity tests' random programs.
func TestMemoisedPlanMatchesFresh(t *testing.T) {
	for _, s := range []sched.Scheduler{sched.HEFT{}, sched.FIFO{}, sched.RoundRobin{}} {
		rt, err := New(ExecConfig{Scheduler: s})
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range append(artifactShapes(), familyJobs()...) {
			checkPlanIsFresh(t, rt, job)
		}
	}
	rt, err := New(ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		p := buildIntegrityDAG(t, rand.New(rand.NewSource(int64(seed))), fmt.Sprintf("plan-%d", seed))
		checkPlanIsFresh(t, rt, p.job)
	}
}

// TestPlanMemoFollowsTheComputeSet: runtimes whose topologies have equal
// compute sides — separately built, as a cluster's shards are — read one plan
// of a job, and a runtime whose compute side differs plans it afresh, under
// its own key, and the other runtimes then plan it again: the memo holds one
// plan. A job that gains a task drops its plan with its graph.
func TestPlanMemoFollowsTheComputeSet(t *testing.T) {
	build := func(cfg topology.SingleNodeConfig) *Runtime {
		topo, err := topology.BuildSingleNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(ExecConfig{Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	narrow := topology.DefaultSingleNode()
	narrow.CoresPerCPU = 2
	a, b, c := build(topology.DefaultSingleNode()), build(topology.DefaultSingleNode()), build(narrow)
	if fa, fb, fc := a.topo.ComputeSet().Fingerprint(), b.topo.ComputeSet().Fingerprint(), c.topo.ComputeSet().Fingerprint(); fa != fb || fa == fc {
		t.Fatalf("fingerprints: default %x and %x, two-core %x; want the defaults equal and the other apart", fa, fb, fc)
	}
	job := artifactShapes()[1] // 16 CPU-bound branches: two cores a CPU plan them otherwise
	pa, err := a.Plan(job)
	if err != nil {
		t.Fatal(err)
	}
	if pb, err := b.Plan(job); err != nil || pb != pa {
		t.Fatalf("a runtime with an equal compute set planned again (%p, %v), want the memo %p", pb, err, pa)
	}
	checkPlanIsFresh(t, c, job)
	if pc, _ := c.Plan(job); reflect.DeepEqual(pc.Schedule, pa.Schedule) {
		t.Fatal("the two-core topology plans the job as the default does: the test shows nothing")
	}
	checkPlanIsFresh(t, a, job)
	before, _ := a.Plan(job)
	job.Task("late", dataflow.Props{Ops: 1e6}, nil)
	checkPlanIsFresh(t, a, job)
	if after, _ := a.Plan(job); after == before || len(after.Tasks) != len(before.Tasks)+1 {
		t.Fatalf("a job that gained a task kept its old plan")
	}
}

// TestStreamWindowPlansForItself: a stream window is built along the graph
// of the window before it, but its aggregate tasks' Ops follow its own events'
// keys, so it plans for itself: each window's plan and estimate equal its own
// fresh ones, and two windows that split their keys differently get different
// estimates. A plan shared along the shape would give the second window the
// first's.
func TestStreamWindowPlansForItself(t *testing.T) {
	rt, err := New(ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.StreamConfig{Windows: 1, WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 4}
	windows := workload.Stream(cfg).Windows()
	// Window 0's keys are all even, so every event lands in partition 0;
	// window 1's alternate, so its events split evenly.
	events := func(w int) []stream.Event {
		evs := make([]stream.Event, cfg.WindowSize)
		for i := range evs {
			key := uint64(2 * i)
			if w == 1 {
				key = uint64(i)
			}
			p := make([]byte, cfg.EventSize)
			binary.BigEndian.PutUint32(p[:4], uint32(key))
			evs[i] = stream.Event{Key: key, Payload: p}
		}
		return evs
	}
	var ests []sched.Estimate
	for w := 0; w < 2; w++ {
		job, err := windows.Instantiate(w, events(w))
		if err != nil {
			t.Fatal(err)
		}
		checkPlanIsFresh(t, rt, job)
		p, _ := rt.Plan(job)
		ests = append(ests, p.Estimate)
	}
	if ests[0] == ests[1] {
		t.Fatalf("both windows price at %+v: their aggregates' Ops did not differ, so the test shows nothing", ests[0])
	}
}

// TestSpansReachTheRegistryPerAttempt: an attempt's task spans reach the
// registry together when it ends, one a completed task, in rank order,
// whether it succeeded or failed: a failed first attempt's spans hold every
// rank below the failure, the retry's one span a task, restored ones as
// "restore", and the layer totals are the spans' sums. Nothing is left in a
// context slot.
func TestSpansReachTheRegistryPerAttempt(t *testing.T) {
	inj := fault.NewInjector(1, 0, 1)
	inj.Kill("branch05", 1)
	rt, err := New(ExecConfig{Workers: 4, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	job := wideJob("spans", 8)
	rep, err := rt.Run(job, RecoveryPolicy{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("the job took %d attempts, want 2", rep.Attempts)
	}
	g, _ := job.Graph()
	rank := map[string]int{}
	for k, task := range g.Order {
		rank[task.ID()] = k
	}
	var attempts [][]telemetry.Span
	byLayer := map[telemetry.Layer]time.Duration{}
	last := len(g.Order)
	for _, sp := range rt.Telemetry().Spans() {
		byLayer[sp.Layer] += sp.Duration()
		if sp.Job != "spans" || (sp.Name != "exec" && sp.Name != "restore") {
			continue
		}
		if rank[sp.Task] <= last {
			attempts = append(attempts, nil)
		}
		last = rank[sp.Task]
		attempts[len(attempts)-1] = append(attempts[len(attempts)-1], sp)
	}
	if !reflect.DeepEqual(byLayer, rt.Telemetry().ByLayer()) {
		t.Errorf("layer totals %v, the spans sum to %v", rt.Telemetry().ByLayer(), byLayer)
	}
	if len(attempts) != 2 {
		t.Fatalf("the spans fall in %d rank-ordered runs, want one an attempt: %v", len(attempts), attempts)
	}
	failed := rank["branch05"]
	for k := 0; k < failed; k++ {
		if k >= len(attempts[0]) || rank[attempts[0][k].Task] != k || attempts[0][k].Name != "exec" {
			t.Fatalf("the failed attempt's spans %v do not open with every rank below %d", attempts[0], failed)
		}
	}
	restored := 0
	for k, sp := range attempts[1] {
		if rank[sp.Task] != k {
			t.Fatalf("the retry's span %d is %s's, want one a task in rank order", k, sp.Task)
		}
		if sp.Name == "restore" {
			restored++
		}
	}
	if len(attempts[1]) != len(g.Order) || restored != rep.SkippedTasks || restored == 0 {
		t.Errorf("the retry recorded %d spans, %d restores; want %d and the %d skipped tasks", len(attempts[1]), restored, len(g.Order), rep.SkippedTasks)
	}
	sc := rt.free.Get()
	for k := range sc.ctxs {
		if sc.ctxs[k].span != (telemetry.Span{}) {
			t.Errorf("slot %d kept its span %v", k, sc.ctxs[k].span)
		}
	}
	rt.putScratch(sc)
}
