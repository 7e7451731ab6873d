package shard

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/workload"
)

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
// nil-body mix, in the shape of core's TestAllocLedger routed case, one job
// after another through Cluster.Submit. No task body stalls, so ring walk,
// ledger write, admission, planning, dispatch, checkpoint, injected-fault
// retries and retirement are the whole number. One pass over the pool is the
// untimed ramp, and it is the determinism check as well: every job reports
// byte for byte what its solo Workers=1 run under the same injector and
// recovery policy reports, the jobs the injector failed and retried among
// them — a fault site is keyed by the job's name, not by the submission.
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
