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
// execution, serving the nil-body mix one job after another. Measured 30.6
// allocations a job (30.9 under -race) with every handle in its region's
// storage, 37.6 (38.0) with a handle allocated per hand-over; 73.6 when five
// bookkeeping sites allocated per task or per replica: the replicated store's
// object record and replica list per checkpoint, the injector's site string
// per step, the routing signature's hasher and task-list copy, the run ID's
// Sprintf, and the restore log's. The budget fails on any of the first three coming back,
// and on a handle allocated per hand-over.
func TestAllocBudgetRoutedJob(t *testing.T) {
	const budget = 33.0
	c := newTestCluster(t, Config{Shards: 2, Server: core.ServerConfig{
		ExecConfig:   core.ExecConfig{Workers: 2, Inject: fault.NewInjector(42, 0.05, 1)},
		EpochWorkers: 2, MaxBatch: 8, QueueDepth: 1024,
		Recovery: &core.RecoveryPolicy{MaxAttempts: 8, PartialReplay: true},
	}})
	mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: -1})
	pool := make([]*dataflow.Job, 256)
	for i := range pool {
		pool[i] = mix.Next()
	}
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
