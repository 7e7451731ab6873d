package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestRandomProgramShardCounts is relation (v) of the random-program suite
// (TestRandomProgramRelations, which package core keeps, since core cannot
// import the cluster): a report does not depend on how many shards serve it.
// Every seed's program, submitted through clusters of 1, 2 and 4 shards,
// reports the Report.String() bytes Runtime.Run reports, and each global of
// it has exactly one creator. A failure names the seed, which rebuilds the
// program.
func TestRandomProgramShardCounts(t *testing.T) {
	counts := []int{1, 2, 4}
	clusters := make([]*shard.Cluster, len(counts))
	for i, n := range counts {
		c, err := shard.NewCluster(shard.Config{Shards: n, Server: core.ServerConfig{Block: true}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(context.Background()) }) //nolint:errcheck
		clusters[i] = c
	}
	for seed := int64(1); seed <= int64(core.IntegrityBudget()); seed++ {
		job, creators := core.IntegrityProgram(t, rand.New(rand.NewSource(seed)), fmt.Sprintf("shards-%d", seed))
		rt, err := core.New(core.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(job)
		if err == nil {
			err = creators(rep)
		}
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		want := rep.String()
		for i, c := range clusters {
			rep, err := c.Submit(context.Background(), job)
			if err == nil {
				err = creators(rep)
			}
			if err != nil {
				t.Fatalf("seed %d: %d shards: %v", seed, counts[i], err)
			}
			if got := rep.String(); got != want {
				t.Errorf("seed %d: (v) %d shards report\n%s\nRun reports\n%s", seed, counts[i], got, want)
			}
		}
	}
}
