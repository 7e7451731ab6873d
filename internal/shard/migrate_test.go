package shard

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
)

// migratePayload derives a deterministic per-job payload (FNV keystream).
func migratePayload(name string, n int) []byte {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := h.Sum64()
	out := make([]byte, n)
	for i := range out {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		out[i] = byte(seed)
	}
	return out
}

const migrateRegionBytes = 64 << 10

// sweepCount counts the finished sweeps of a maintenance loop, so a task can
// wait for sweeps rather than for wall time.
type sweepCount struct {
	mu   sync.Mutex
	cond sync.Cond
	n    int
}

func newSweepCount() *sweepCount {
	s := &sweepCount{}
	s.cond.L = &s.mu
	return s
}

// done records one finished sweep.
func (s *sweepCount) done() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// await blocks until k more sweeps have finished.
func (s *sweepCount) await(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for target := s.n + k; s.n < target; {
		s.cond.Wait()
	}
}

// migrateJob is the migration workload: a producer fills a job-wide Global
// Scratch region, a hold stage waits out two maintenance sweeps (the window
// in which the region goes cold and is evicted to a remote shard), and a
// consumer reads the payload back, verifying every byte survived the remote
// round trip. With sweeps nil the hold stage does not wait. Virtual time is
// a pure function of the structure, so the served report must be
// byte-identical to a solo run that never migrated.
func migrateJob(name string, sweeps *sweepCount) *dataflow.Job {
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
		if sweeps != nil {
			sweeps.await(2) // real time only; invisible to the virtual clock
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

// sweepUntil runs rebalance sweeps, each on its own clock, until stop is
// closed, counting each in sweeps — the cluster's maintenance loop,
// concurrent with serving. It yields between sweeps.
func sweepUntil(c *Cluster, sweeps *sweepCount, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		c.Rebalance(0)
		sweeps.done()
		runtime.Gosched()
	}
}

// evictingConfig forces migration on every sweep: any utilization exports
// all cold regions, so the remote path is exercised without gigabytes of
// load.
func evictingConfig(shards int) Config {
	return Config{
		Shards:  shards,
		Migrate: true,
		Server:  core.ServerConfig{EpochWorkers: 2, MaxBatch: 4},
		Rebalance: region.RebalancePolicy{
			EvictWatermark: 1e-12,
		},
	}
}

// TestMigrationReportEqualityAcrossShardCounts is the tentpole invariant:
// with cross-shard migration enabled and maintenance sweeps running
// concurrently with serving, every report stays byte-identical to a solo
// Runtime.Run at shard counts 1, 2, and 4. At one shard there is no spill
// target, so the same sweeps must simply do nothing remote.
func TestMigrationReportEqualityAcrossShardCounts(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newTestCluster(t, evictingConfig(shards))
			stop, sweeps := make(chan struct{}), newSweepCount()
			go sweepUntil(c, sweeps, stop)
			defer close(stop)

			type pending struct {
				name string
				want string
				tk   *core.Ticket
			}
			var subs []pending
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("mig-%d", i)
				want := soloReport(t, migrateJob(name, nil)).String()
				tk, err := c.SubmitAsync(context.Background(), migrateJob(name, sweeps))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				subs = append(subs, pending{name, want, tk})
			}
			for _, s := range subs {
				rep, err := s.tk.Wait(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if got := rep.String(); got != s.want {
					t.Fatalf("%s diverges from solo with migration on:\n got: %s\nwant: %s", s.name, got, s.want)
				}
			}

			ms := c.MigrationStats()
			if shards == 1 {
				if ms.Exported != 0 {
					t.Fatalf("one shard has no spill target, yet exported %d regions", ms.Exported)
				}
				return
			}
			// Each hold waits out two sweeps, each a chance to export the
			// job's cold region; the consumer then recalls it.
			if ms.Exported == 0 || ms.Recalled == 0 {
				t.Fatalf("migration path not exercised: %+v", ms)
			}
			if ms.BytesOut < migrateRegionBytes || ms.BytesBack < migrateRegionBytes {
				t.Errorf("payload accounting: %+v", ms)
			}
			if ms.VerbTime <= 0 {
				t.Error("fabric verbs must cost virtual time")
			}
			// The moved bytes are attributed to the hosting nodes' NIC-side
			// counters.
			var fabricBytes uint64
			for _, st := range c.Stats() {
				fabricBytes += st.Fabric.Bytes
			}
			if fabricBytes < uint64(ms.BytesOut) {
				t.Errorf("fabric counted %d bytes, migration alone moved %d", fabricBytes, ms.BytesOut)
			}
		})
	}
}

// migrateGateJob passes the payload through a task *output* (checkpointed
// under recovery) and parks on a gate between producer and consumer — the
// deterministic crash window for the owner-dies-mid-migration test.
func migrateGateJob(name string, started chan<- struct{}, release <-chan struct{}) *dataflow.Job {
	j := dataflow.NewJob(name)
	payload := migratePayload(name, 4<<10)
	produce := j.Task("produce", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
		out, err := ctx.Output(4 << 10)
		if err != nil {
			return err
		}
		now, err := out.WriteAsync(ctx.Now(), 0, payload).Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	gate := j.Task("gate", dataflow.Props{Ops: 1e5}, func(ctx dataflow.Ctx) error {
		if started != nil {
			select {
			case started <- struct{}{}:
			default: // failover re-run: the test already saw the first entry
			}
		}
		if release != nil {
			<-release
		}
		return nil
	})
	consume := j.Task("consume", dataflow.Props{Ops: 1e6}, func(ctx dataflow.Ctx) error {
		in := ctx.Inputs()[0]
		buf := make([]byte, 4<<10)
		now, err := in.ReadAsync(ctx.Now(), 0, buf).Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("payload corrupted across crash recovery")
		}
		return nil
	})
	produce.Then(gate)
	produce.Then(consume)
	gate.Then(consume)
	return j
}

// exportSweeps bounds sweepUntilExported: heat halves every sweep, so a
// region the job no longer touches goes cold within a few.
const exportSweeps = 64

// sweepUntilExported sweeps c until shard i has exported a region into the
// cluster pool, and fails the test after exportSweeps sweeps without one.
func sweepUntilExported(t *testing.T, c *Cluster, i int) {
	t.Helper()
	for n := 1; c.shards[i].pool.Stats().Live == 0; n++ {
		if n > exportSweeps {
			t.Fatalf("shard %d exported no region in %d sweeps", i, exportSweeps)
		}
		c.Rebalance(0)
	}
}

// crashMidMigration drives the shared choreography of the owner-crash
// tests: park a migrateGateJob on the victim shard, sweep until the
// victim's regions are exported (the job is now mid-migration), crash the
// victim, and release the gate. Returns the delivered report.
func crashMidMigration(t *testing.T, c *Cluster, victim int, prefix string) (*core.Report, string) {
	t.Helper()
	var name string
	for i := 0; i < 4096; i++ {
		cand := fmt.Sprintf("%s-%d", prefix, i)
		if c.Route(Signature(migrateGateJob(cand, nil, nil))) == victim {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no key routes to the victim shard")
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	tk, err := c.SubmitAsync(context.Background(), migrateGateJob(name, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started // produce completed; consume not dispatched

	// Sweep until the victim's cold regions (produce's output shares) are
	// exported into the cluster pool. produce has retired and gate holds its
	// share until released, so when that happens depends only on how fast
	// heat decays, sweep by sweep — never on the wall clock.
	sweepUntilExported(t, c, victim)

	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	close(release)

	// Adoption: the dead owner holds no leases; the survivors reclaimed
	// the slab capacity.
	if leases := c.Fabric().LeasesOf(c.shards[victim].name); len(leases) != 0 {
		t.Fatalf("dead owner still holds %d leases after adoption", len(leases))
	}
	if got := c.Runtime().Telemetry().Counter(telemetry.LayerCluster, "region_exports_adopted"); got < 1 {
		t.Errorf("region_exports_adopted = %d, want ≥1", got)
	}

	rep, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard == c.shards[victim].name {
		t.Fatalf("served by the dead shard %s", rep.Shard)
	}
	return rep, name
}

// TestMigrationOwnerCrashByteIdentical crashes a shard while its regions
// sit exported in the cluster pool and a job is parked mid-flight, with
// recovery off: the ring successor adopts the dead owner's slab leases and
// the job re-runs from scratch on a survivor — report byte-identical to a
// solo run, exactly as if the migration had never happened.
func TestMigrationOwnerCrashByteIdentical(t *testing.T) {
	cfg := evictingConfig(3)
	cfg.Server.MaxBatch = 1
	cfg.Server.EpochWorkers = 1
	c := newTestCluster(t, cfg)

	rep, name := crashMidMigration(t, c, 0, "crash-mig")
	want := soloReport(t, migrateGateJob(name, nil, nil)).String()
	if got := rep.String(); got != want {
		t.Fatalf("report after owner crash diverges from solo:\n got: %s\nwant: %s", got, want)
	}
}

// TestMigrationOwnerCrashPartialReplay is the same crash with recovery on:
// the survivor restores the producer from the cluster-shared checkpoint
// store instead of re-running it, and the consumer — re-executed — reads
// the restored payload (its body verifies every byte).
func TestMigrationOwnerCrashPartialReplay(t *testing.T) {
	cfg := evictingConfig(3)
	cfg.Server.MaxBatch = 1
	cfg.Server.EpochWorkers = 1
	cfg.Server.Recovery = &core.RecoveryPolicy{MaxAttempts: 2, PartialReplay: true}
	c := newTestCluster(t, cfg)

	rep, _ := crashMidMigration(t, c, 0, "replay-mig")
	if rep.SkippedTasks < 1 {
		t.Errorf("survivor must restore the dead shard's checkpoints, skipped %d", rep.SkippedTasks)
	}
	if len(rep.Tasks) != 3 {
		t.Errorf("recovered report must cover all 3 tasks, got %d", len(rep.Tasks))
	}
}

// TestMigrationSlabHostCrashRecallsFromBackup kills the memory node hosting
// a migrated region: the fabric read fails, and the recall must transparently
// fall back to the replicated checkpoint store — byte-identical report
// included, because the fallback costs wall-clock only.
func TestMigrationSlabHostCrashRecallsFromBackup(t *testing.T) {
	cfg := evictingConfig(2)
	cfg.Server.MaxBatch = 1
	cfg.Server.EpochWorkers = 1
	c := newTestCluster(t, cfg)

	// The job runs on `home`; its regions spill to the only other shard.
	home := 0
	var name string
	for i := 0; i < 4096; i++ {
		cand := fmt.Sprintf("hostloss-%d", i)
		if c.Route(Signature(migrateGateJob(cand, nil, nil))) == home {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no key routes to the home shard")
	}
	want := soloReport(t, migrateGateJob(name, nil, nil)).String()

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	tk, err := c.SubmitAsync(context.Background(), migrateGateJob(name, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	sweepUntilExported(t, c, home)

	// Kill the slab host (the other shard). home's exported payloads are
	// gone from the fabric; only the pmem backup still has them.
	if err := c.Crash(1 - home); err != nil {
		t.Fatal(err)
	}
	close(release)

	rep, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String(); got != want {
		t.Fatalf("report after slab-host crash diverges from solo:\n got: %s\nwant: %s", got, want)
	}
	if st := c.shards[home].pool.Stats(); st.HostLost < 1 {
		t.Errorf("HostLost = %d, want ≥1 (recall must have come from backup)", st.HostLost)
	}
	if got := c.Runtime().Telemetry().Counter(telemetry.LayerCluster, "region_host_lost"); got < 1 {
		t.Errorf("region_host_lost counter = %d, want ≥1", got)
	}
}

// TestWalkFromOrdersSpillTargets pins the spill-target walk: deterministic,
// excludes the origin, skips dead shards, and is consistent with the ring.
func TestWalkFromOrdersSpillTargets(t *testing.T) {
	r := buildRing([]string{"shard0", "shard1", "shard2", "shard3"})
	all := func(int) bool { return true }
	got := r.walkFrom(0, all)
	if len(got) != 3 {
		t.Fatalf("walkFrom(0) = %v, want 3 distinct others", got)
	}
	for _, s := range got {
		if s == 0 {
			t.Fatalf("walkFrom must exclude the origin: %v", got)
		}
	}
	// Deterministic across calls.
	for i := 0; i < 3; i++ {
		again := r.walkFrom(0, all)
		for j := range got {
			if again[j] != got[j] {
				t.Fatalf("walkFrom not deterministic: %v vs %v", got, again)
			}
		}
	}
	// Dead shards are skipped, order of the rest preserved.
	dead := got[0]
	alive := func(i int) bool { return i != dead }
	pruned := r.walkFrom(0, alive)
	if len(pruned) != 2 {
		t.Fatalf("walkFrom with one dead = %v, want 2", pruned)
	}
	if pruned[0] != got[1] || pruned[1] != got[2] {
		t.Fatalf("pruned walk %v must preserve ring order of %v", pruned, got)
	}
}
