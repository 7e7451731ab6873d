package repro_test

// Keeps every runnable example green: each one is built and executed via
// the Go toolchain. Skipped under -short (they spawn processes).
//
// The Example functions below are the godoc-visible tour of the facade:
// asynchronous serving via tickets, and checkpointed recovery with partial
// replay. Their Output comments are exact — virtual time is deterministic,
// so the printed task and attempt counts never flake.

import (
	"context"
	"fmt"
	"os/exec"
	"strings"
	"testing"

	"repro"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn subprocesses; skipped in -short mode")
	}
	cases := []struct {
		dir  string
		want string // substring the example must print
	}{
		{"./examples/quickstart", "virtual makespan"},
		{"./examples/hospital", "missing-patient ledger survives a crash"},
		{"./examples/dbms", "naive is"},
		{"./examples/mlpipeline", "cross-layer profile"},
		{"./examples/streaming", "no data lost across the node crash"},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", c.dir, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%s output missing %q:\n%s", c.dir, c.want, out)
			}
		})
	}
}

// exampleJob builds a tiny three-stage pipeline. Tasks declare their cost
// and output size declaratively (TaskProps); nil bodies let the runtime
// synthesize the compute and the output region.
func exampleJob(name string) *repro.Job {
	j := repro.NewJob(name)
	load := j.Task("load", repro.TaskProps{Ops: 1e6, OutputBytes: 4 << 10}, nil)
	transform := j.Task("transform", repro.TaskProps{Ops: 2e6, OutputBytes: 4 << 10}, nil)
	sink := j.Task("sink", repro.TaskProps{Ops: 1e5}, nil)
	load.Then(transform)
	transform.Then(sink)
	return j
}

// ExampleServer_SubmitAsync submits jobs through the admission-controlled
// server without blocking: SubmitAsync returns a Ticket immediately, and
// Wait collects each job's report later, in any order.
func ExampleServer_SubmitAsync() {
	srv, err := repro.NewServer(repro.ServerConfig{Block: true})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	// Enqueue both jobs up front; neither call blocks on execution.
	var tickets []*repro.Ticket
	for _, name := range []string{"etl-a", "etl-b"} {
		tk, err := srv.SubmitAsync(ctx, exampleJob(name))
		if err != nil {
			panic(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		rep, err := tk.Wait(ctx)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d tasks in %d attempt(s)\n", rep.Job, len(rep.Tasks), rep.Attempts)
	}
	if err := srv.Close(ctx); err != nil {
		panic(err)
	}
	// Output:
	// etl-a: 3 tasks in 1 attempt(s)
	// etl-b: 3 tasks in 1 attempt(s)
}

// ExampleRuntime_Run recovers a job whose sink fails once: Run takes an
// optional RecoveryPolicy. The retry completes the two checkpointed upstream
// tasks from their snapshots (skipped) and re-executes only the failed sink
// (replayed); PartialReplay additionally fetches a snapshot's payload from
// the store only when a re-executed task actually reads it. The recovered
// report is byte-identical with and without it — and to what a Server with
// the same policy reports for the same job and fault.
func ExampleRuntime_Run() {
	inj := repro.NewFaultInjector(1, 0, 1)
	inj.Kill("sink", 1) // the sink's first execution fails

	rt, err := repro.NewRuntime(repro.ExecConfig{Inject: inj})
	if err != nil {
		panic(err)
	}
	// Checkpoints live in a 2-way replicated far-memory store (the default
	// when Store is nil; spelled out here).
	fabric := repro.NewFabric(repro.FabricConfig{})
	for i := 0; i < 3; i++ {
		if err := fabric.AddNode(fmt.Sprintf("ckmem%d", i), 1<<26); err != nil {
			panic(err)
		}
	}
	store, err := repro.NewReplicatedStore(fabric, 2)
	if err != nil {
		panic(err)
	}

	rep, err := rt.Run(exampleJob("etl"), repro.RecoveryPolicy{Checkpointer: repro.NewCheckpointer(store), PartialReplay: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered in %d attempts: %d skipped, %d replayed\n",
		rep.Attempts, rep.SkippedTasks, rep.ReplayedTasks)
	// Output:
	// recovered in 2 attempts: 2 skipped, 1 replayed
}

// ExampleNewCluster serves a job mix on a two-shard cluster: submissions
// are consistent-hashed across the shards over the fabric, and Migrate
// lets maintenance sweeps evict cold regions into remote shards' memory
// pools. Virtual makespans are a pure function of each job's DAG — the
// same at any shard count, with or without migration.
func ExampleNewCluster() {
	c, err := repro.NewCluster(repro.ClusterConfig{Shards: 2, Migrate: true})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	for _, name := range []string{"etl-a", "etl-b", "etl-c"} {
		rep, err := c.Submit(ctx, exampleJob(name))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d tasks, makespan %v\n", rep.Job, len(rep.Tasks), rep.Makespan)
	}
	if err := c.Close(ctx); err != nil {
		panic(err)
	}
	// Output:
	// etl-a: 3 tasks, makespan 775ns
	// etl-b: 3 tasks, makespan 775ns
	// etl-c: 3 tasks, makespan 775ns
}

// ExampleServer_SubmitStream serves an unbounded dataflow window by
// window: the source is cut into tumbling windows, each window's job is
// stamped by the Build callback and admitted like any other submission,
// and reports retire in order while the watermark advances in virtual
// time by each retired window's makespan.
func ExampleServer_SubmitStream() {
	srv, err := repro.NewServer(repro.ServerConfig{Block: true})
	if err != nil {
		panic(err)
	}

	events := make([]repro.StreamEvent, 8)
	for i := range events {
		events[i] = repro.StreamEvent{Key: uint64(i)}
	}
	spec := repro.StreamSpec{
		Name: "ticks", Source: repro.NewSliceSource(events),
		WindowSize: 4, MaxInFlight: 2,
		Build: func(w repro.StreamWindow, j *repro.Job) error {
			extract := j.Task("extract", repro.TaskProps{Ops: 1e5, OutputBytes: 1 << 10}, nil)
			load := j.Task("load", repro.TaskProps{Ops: 1e5}, nil)
			extract.Then(load)
			return nil
		},
	}

	tk, err := srv.SubmitStream(context.Background(), spec)
	if err != nil {
		panic(err)
	}
	for rep := range tk.Reports() {
		fmt.Printf("%s retired: %d tasks, makespan %v\n", rep.Job, len(rep.Tasks), rep.Makespan)
	}
	<-tk.Done()
	fmt.Printf("stream drained: %d windows, watermark %v\n", tk.Windows(), tk.Watermark())
	if err := srv.Close(context.Background()); err != nil {
		panic(err)
	}
	// Output:
	// ticks/w000000 retired: 2 tasks, makespan 50ns
	// ticks/w000001 retired: 2 tasks, makespan 50ns
	// stream drained: 2 windows, watermark 100ns
}
