package shard

import (
	"context"
	goruntime "runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/workload"
)

// TestAllocBudgetRoutedJob pins what a routed, checkpointed job allocates, in
// the repository benchmark's cluster_recover shape: two shards sharing one
// checkpointer, partial replay, and 5 % of task sites failing their first
// execution, serving the nil-body mix one job after another. Measured 26.5
// allocations a job (26.8 under -race) with the task contexts a slot block of
// the job's scratch, 28.3 (28.6) with a block allocated per attempt and a
// report that holds its tails, 30.6 (30.9) with the tails allocated apart, 37.6 (38.0) with a handle
// allocated per hand-over; 73.6 when five
// bookkeeping sites allocated per task or per replica: the replicated store's
// object record and replica list per checkpoint, the injector's site string
// per step, the routing signature's hasher and task-list copy, the run ID's
// Sprintf, and the restore log's. The budget fails on any of the first three coming back,
// and on a handle allocated per hand-over.
func TestAllocBudgetRoutedJob(t *testing.T) {
	const budget = 29.0
	c, pool := routedMix(t)
	pass := func() {
		for _, j := range pool {
			if _, err := c.Submit(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	const passes = 3
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	goruntime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / (passes * float64(len(pool)))
	t.Logf("routed checkpointed nil-body mix job: %.1f allocs (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("a routed job makes %.1f allocations, budget is %.1f — a handle per hand-over, a store record, an injector site, a signature hasher, a run ID or a restore log allocating again?", got, budget)
	}
}

// routedPolicy and routedInjector are the recovery and the faults every
// routed-mix shard and its solo reference run under.
var routedPolicy = core.RecoveryPolicy{MaxAttempts: 8, PartialReplay: true}

func routedInjector() *fault.Injector { return fault.NewInjector(42, 0.05, 1) }

// routedMix is the routed checkpointed serving shape: a 2-shard cluster
// sharing one checkpointer, partial replay, 5 % of task sites failing their
// first execution, and 256 jobs of the nil-body serving mix.
func routedMix(tb testing.TB) (*Cluster, []*dataflow.Job) {
	tb.Helper()
	pol := routedPolicy
	c := newTestCluster(tb, Config{Shards: 2, Server: core.ServerConfig{
		ExecConfig:   core.ExecConfig{Workers: 2, Inject: routedInjector()},
		EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024,
		Recovery: &pol,
	}})
	mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: -1})
	pool := make([]*dataflow.Job, 256)
	for i := range pool {
		pool[i] = mix.Next()
	}
	return c, pool
}

// BenchmarkRoutedJob is BenchmarkServedJob (internal/core) through the
// router: what the engine spends on one routed, checkpointed job of the
// nil-body mix, in TestAllocBudgetRoutedJob's shape, one job after another
// through Cluster.Submit. No task body stalls, so ring walk, ledger write,
// admission, planning, dispatch, checkpoint, injected-fault retries and
// retirement are the whole number. One pass over the pool is the untimed
// ramp, and it is the determinism check as well: every job reports byte for
// byte what its solo Workers=1 run under the same injector and recovery
// policy reports, the jobs the injector failed and retried among them — a
// fault site is keyed by the job's name, not by the submission.
func BenchmarkRoutedJob(b *testing.B) {
	c, pool := routedMix(b)
	rt, err := core.New(core.ExecConfig{Workers: 1, Inject: routedInjector()})
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range pool {
		rep, err := c.Submit(context.Background(), j)
		if err != nil {
			b.Fatal(err)
		}
		solo, err := rt.Run(j, routedPolicy)
		if err != nil {
			b.Fatal(err)
		}
		if rep.String() != solo.String() {
			b.Fatalf("%s: routed report diverges from solo:\n got: %s\nwant: %s", j.Name(), rep, solo)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(context.Background(), pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}
