package shard

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
)

// stageChain is a three-stage chain whose every stage runs body. Its routing
// signature depends on its name alone, so the benchmark's stalling jobs and
// the tests' barrier jobs of one name land on the same shard.
func stageChain(name string, body func(dataflow.Ctx) error) *dataflow.Job {
	j := dataflow.NewJob(name)
	var prev *dataflow.Task
	for i := 0; i < 3; i++ {
		t := j.Task(fmt.Sprintf("stage%d", i), dataflow.Props{Ops: 1e5}, body)
		if prev != nil {
			prev.Then(t)
		}
		prev = t
	}
	return j
}

// benchStallJob is the serving workload: a three-stage chain whose stages
// stall the wall clock (the far-memory round trips a real deployment
// waits on) and write a small scratch payload. Virtual time is a pure
// function of the structure, so every name has the same solo makespan.
func benchStallJob(name string, stall time.Duration) *dataflow.Job {
	return stageChain(name, func(ctx dataflow.Ctx) error {
		scratch, err := ctx.Scratch("buf", 4<<10)
		if err != nil {
			return err
		}
		now, err := scratch.WriteAt(ctx.Now(), 0, make([]byte, 4<<10))
		if err != nil {
			return err
		}
		ctx.Wait(now)
		time.Sleep(stall)
		ctx.Charge(1e5)
		return nil
	})
}

// benchJobNames picks jobCount names whose consistent-hash assignment is
// even on both the 2-shard and the 4-shard ring, so the scaling curve
// measures the architecture, not one unlucky key draw. Deterministic: the
// ring point set is fixed, so the scan always selects the same names.
func benchJobNames(jobCount int) []string {
	ring2 := buildRing([]string{"shard0", "shard1"})
	ring4 := buildRing([]string{"shard0", "shard1", "shard2", "shard3"})
	alive := func(int) bool { return true }
	var names []string
	count2 := make([]int, 2)
	count4 := make([]int, 4)
	for i := 0; len(names) < jobCount && i < 65536; i++ {
		name := fmt.Sprintf("sj-%d", i)
		sig := Signature(stageChain(name, nil))
		b2, b4 := ring2.successor(sig, alive), ring4.successor(sig, alive)
		if count2[b2] >= jobCount/2 || count4[b4] >= jobCount/4 {
			continue
		}
		count2[b2]++
		count4[b4]++
		names = append(names, name)
	}
	return names
}

// BenchmarkServeSharded is the scaling curve: a fixed 16-job wave served by
// 1, 2, and 4 shards, each shard a single-worker core.Server over its own
// runtime and epoch pool. One shard drains the wave serially; N shards
// overlap the stages' wall-clock stalls N ways, so admitted jobs/s scales
// with the shard count. No gate reads it: that the shards run side by side
// is TestShardsAllInFlight, exactly. On the first iteration of every shard
// count, each report is asserted byte-identical to the job's solo Workers=1
// run — horizontal scale never buys back determinism.
func BenchmarkServeSharded(b *testing.B) {
	const (
		jobCount = 16
		stall    = 2 * time.Millisecond
	)
	names := benchJobNames(jobCount)
	if len(names) != jobCount {
		b.Fatalf("selected %d balanced job names, want %d", len(names), jobCount)
	}
	solo := make(map[string]string, jobCount)
	for _, n := range names {
		solo[n] = soloReport(b, benchStallJob(n, stall)).String()
	}

	var baseJobsPerSec float64
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := NewCluster(Config{
				Shards: shards,
				Server: core.ServerConfig{
					EpochWorkers: 1, MaxBatch: 1, QueueDepth: 2 * jobCount, Block: true,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close(context.Background()) //nolint:errcheck
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tks := make([]*core.Ticket, jobCount)
				for k, n := range names {
					tk, err := c.SubmitAsync(context.Background(), benchStallJob(n, stall))
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
					if i == 0 {
						if got := rep.String(); got != solo[names[k]] {
							b.Fatalf("%s: sharded report diverges from solo:\n got: %s\nwant: %s", names[k], got, solo[names[k]])
						}
					}
				}
			}
			jobsPerSec := float64(b.N*jobCount) / b.Elapsed().Seconds()
			b.ReportMetric(jobsPerSec, "jobs/s")
			if shards == 1 {
				baseJobsPerSec = jobsPerSec
			} else if baseJobsPerSec > 0 {
				b.ReportMetric(jobsPerSec/baseJobsPerSec, "speedup")
			}
		})
	}
}

// TestShardsAllInFlight is the sharded twin of core's
// TestBatchMatesAllInFlight: at 2 and 4 single-worker shards, the wave of
// benchJobNames(16) has one job in flight on every shard at once. Every stage
// waits at a barrier for one arrival per shard, and a single-worker shard
// runs one stage at a time, so the wave completes only if the ring spread it
// evenly and every shard ran side by side; the per-shard admission counts
// are exact.
func TestShardsAllInFlight(t *testing.T) {
	const jobCount = 16
	names := benchJobNames(jobCount)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newTestCluster(t, Config{Shards: shards, Server: core.ServerConfig{
				ExecConfig: core.ExecConfig{Workers: 1}, EpochWorkers: 1, MaxBatch: 1, QueueDepth: 2 * jobCount,
			}})
			bar := &barrier{n: shards, open: make(chan struct{})}
			tks := make([]*core.Ticket, len(names))
			for k, n := range names {
				tk, err := c.SubmitAsync(context.Background(), stageChain(n, func(dataflow.Ctx) error { return bar.wait() }))
				if err != nil {
					t.Fatal(err)
				}
				tks[k] = tk
			}
			for k, tk := range tks {
				if _, err := tk.Wait(context.Background()); err != nil {
					t.Fatalf("%s: %v", names[k], err)
				}
			}
			for _, st := range c.Stats() {
				if st.Admitted != jobCount/int64(shards) || st.Completed != st.Admitted {
					t.Errorf("%s admitted %d and completed %d jobs, want %d each", st.Name, st.Admitted, st.Completed, jobCount/shards)
				}
			}
		})
	}
}

// barrier is a cyclic barrier of n parties: wait returns once n callers
// have arrived in the current round, and the next caller opens a new round.
type barrier struct {
	n       int
	mu      sync.Mutex
	arrived int
	open    chan struct{} // closed when the current round is full
}

func (b *barrier) wait() error {
	b.mu.Lock()
	open := b.open
	if b.arrived++; b.arrived == b.n {
		close(open)
		b.arrived, b.open = 0, make(chan struct{})
	}
	b.mu.Unlock()
	select {
	case <-open:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("fewer than %d shards ever had a job in flight together", b.n)
	}
}

// benchMigrateJob is the rebalance workload: produce fills a job-wide
// 64 KiB global, hold parks the job (signalling started, waiting on
// release) so the sweep window is open, and consume reads every byte back.
// Exactly one evictable region per job, so the export/recall counts per
// iteration are an exact function of the job count.
func benchMigrateJob(name string, started chan<- struct{}, release <-chan struct{}) *dataflow.Job {
	j := dataflow.NewJob(name)
	payload := migratePayload(name, migrateRegionBytes)
	produce := j.Task("produce", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
		st, err := ctx.Global("state", props.GlobalScratch, migrateRegionBytes)
		if err != nil {
			return err
		}
		now, err := st.WriteAsync(ctx.Now(), 0, payload).Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	hold := j.Task("hold", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		if started != nil {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		if release != nil {
			<-release
		}
		return nil
	})
	consume := j.Task("consume", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
		st, err := ctx.Global("state", props.GlobalScratch, migrateRegionBytes)
		if err != nil {
			return err
		}
		buf := make([]byte, migrateRegionBytes)
		now, err := st.ReadAsync(ctx.Now(), 0, buf).Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("payload corrupted across migration")
		}
		return nil
	})
	produce.Then(hold)
	hold.Then(consume)
	return j
}

// BenchmarkClusterRebalance is the migration acceptance benchmark: 8 jobs
// park with one cold 64 KiB region each on a 2-shard cluster, maintenance
// sweeps export every region to the remote shard's pool, and the released
// consumers recall them on read. The exported/op and recalled/op metrics
// are exact (8 regions, each exported once and recalled once), so
// bench-smoke gates them at zero tolerance; the first iteration also
// asserts each report byte-identical to a solo run that never migrated.
func BenchmarkClusterRebalance(b *testing.B) {
	const jobCount = 8
	cfg := evictingConfig(2)
	// All jobs must park at hold concurrently, so every shard needs enough
	// epoch workers and batch slots to run the full wave at once.
	cfg.Server.EpochWorkers = jobCount
	cfg.Server.MaxBatch = jobCount
	cfg.Server.QueueDepth = 2 * jobCount
	cfg.Server.Block = true
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close(context.Background()) //nolint:errcheck

	names := make([]string, jobCount)
	solo := make([]string, jobCount)
	for k := range names {
		names[k] = fmt.Sprintf("reb-%d", k)
		solo[k] = soloReport(b, benchMigrateJob(names[k], nil, nil)).String()
	}

	var exported, recalled, bytesOut int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := c.MigrationStats()
		started := make(chan struct{}, jobCount)
		release := make(chan struct{})
		tks := make([]*core.Ticket, jobCount)
		for k, n := range names {
			tk, err := c.SubmitAsync(context.Background(), benchMigrateJob(n, started, release))
			if err != nil {
				b.Fatal(err)
			}
			tks[k] = tk
		}
		for k := 0; k < jobCount; k++ {
			<-started
		}
		// Sweep until every parked region has been exported to the remote
		// pool (heat decays one step per sweep, so a few passes suffice).
		for c.MigrationStats().Exported-before.Exported < jobCount {
			c.Rebalance(0)
		}
		close(release)
		for k, tk := range tks {
			rep, err := tk.Wait(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				if got := rep.String(); got != solo[k] {
					b.Fatalf("%s: migrated report diverges from solo:\n got: %s\nwant: %s", names[k], got, solo[k])
				}
			}
		}
		after := c.MigrationStats()
		exported += after.Exported - before.Exported
		recalled += after.Recalled - before.Recalled
		bytesOut += int(after.BytesOut - before.BytesOut)
	}
	b.ReportMetric(float64(exported)/float64(b.N), "exported/op")
	b.ReportMetric(float64(recalled)/float64(b.N), "recalled/op")
	b.ReportMetric(float64(bytesOut)/float64(b.N), "migrated-B/op")
}
