package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/shard"
)

// TestRandomProgramShardCounts is relation (v) of the random-program suite
// (TestRandomProgramRelations, which package core keeps, since core cannot
// import the cluster): a report does not depend on how many shards serve it,
// nor on which of them are down. Every seed's program, submitted through
// clusters of 1, 2 and 4 shards, reports the Report.String() bytes
// Runtime.Run reports, and each global of it has exactly one creator — all
// under one seeded injector and one recovery policy, whose fault sites the
// program's name, and so the seed, picks. In the 2- and 4-shard clusters the
// seed also picks a shard, crashes or partitions it before the submission and
// restarts or heals it after; then every shard leases exactly one slab, its
// own live ledger. A failure names the seed, which rebuilds the program and
// its faults.
func TestRandomProgramShardCounts(t *testing.T) {
	exec := core.ExecConfig{Inject: fault.NewInjector(1, core.RelationFaultRate, 1)}
	pol := core.RelationPolicy
	counts := []int{1, 2, 4}
	clusters := make([]*shard.Cluster, len(counts))
	for i, n := range counts {
		c, err := shard.NewCluster(shard.Config{Shards: n, Server: core.ServerConfig{ExecConfig: exec, Recovery: &pol, Block: true}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(context.Background()) }) //nolint:errcheck
		clusters[i] = c
	}
	retried := 0
	for seed := int64(1); seed <= int64(core.IntegrityBudget()); seed++ {
		job, creators := core.IntegrityProgram(t, rand.New(rand.NewSource(seed)), fmt.Sprintf("shards-%d", seed))
		rt, err := core.New(exec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(job, pol)
		if err == nil {
			err = creators(rep)
		}
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if rep.Attempts > 1 {
			retried++
		}
		want := rep.String()
		faults := rand.New(rand.NewSource(-seed))
		for i, c := range clusters {
			victim, crash := -1, false
			if counts[i] > 1 {
				victim, crash = faults.Intn(counts[i]), faults.Intn(2) == 0
				kill := c.Partition
				if crash {
					kill = c.Crash
				}
				if err := kill(victim); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := c.Submit(context.Background(), job)
			if err == nil {
				err = creators(rep)
			}
			if err != nil {
				t.Fatalf("seed %d: %d shards: %v", seed, counts[i], err)
			}
			if got := rep.String(); got != want {
				t.Errorf("seed %d: (v) %d shards, shard %d down (crash %v), report\n%s\nRun reports\n%s", seed, counts[i], victim, crash, got, want)
			}
			if victim < 0 {
				continue
			}
			revive := c.Heal
			if crash {
				revive = c.Restart
			}
			if err := revive(victim); err != nil {
				t.Fatal(err)
			}
			for _, sh := range c.Shards() {
				if got := c.Fabric().LeasesOf(sh.Name()); len(got) != 1 || got[0].Node != sh.Name() {
					t.Fatalf("seed %d: %d shards, after shard %d revived (crash %v): %s leases %v, want its own live ledger", seed, counts[i], victim, crash, sh.Name(), got)
				}
			}
		}
	}
	if retried == 0 {
		t.Error("no program met a fault, so no recovery was compared")
	}
}
