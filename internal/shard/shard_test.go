package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/telemetry"
)

// chainJob builds a deterministic three-stage pipeline. Structurally
// identical inputs yield identical virtual timelines; only the name (the
// routing key) varies.
func chainJob(name string) *dataflow.Job { return heldChainJob(name, nil) }

// heldChainJob is chainJob whose first task parks on release: the
// submission stays in flight for as long as the test holds the channel open,
// whichever epoch worker picks it up. A nil channel builds plain chainJob.
func heldChainJob(name string, release <-chan struct{}) *dataflow.Job {
	var hold dataflow.Fn
	if release != nil {
		hold = func(dataflow.Ctx) error { <-release; return nil }
	}
	j := dataflow.NewJob(name)
	a := j.Task("ingest", dataflow.Props{Ops: 2e6, OutputBytes: 1 << 16}, hold)
	b := j.Task("filter", dataflow.Props{Ops: 4e6, OutputBytes: 1 << 14}, nil)
	c := j.Task("reduce", dataflow.Props{Ops: 1e6}, nil)
	a.Then(b)
	b.Then(c)
	return j
}

// gateJob is a five-stage chain whose fourth task parks on release after
// announcing itself on started — the deterministic crash window: while the
// gate is held, tasks 0–2 have completed (and checkpointed, when recovery
// is on) and task 4 has not dispatched. Nil channels build the same job
// with a pass-through gate (solo references, failover re-runs race-free):
// channel traffic is real Go code, invisible to virtual time.
func gateJob(name string, started chan<- struct{}, release <-chan struct{}) *dataflow.Job {
	j := dataflow.NewJob(name)
	var prev *dataflow.Task
	for i := 0; i < 3; i++ {
		t := j.Task(fmt.Sprintf("t%d", i), dataflow.Props{Ops: 1e6, OutputBytes: 1 << 12}, nil)
		if prev != nil {
			prev.Then(t)
		}
		prev = t
	}
	gate := j.Task("gate", dataflow.Props{Ops: 1e6, OutputBytes: 1 << 12}, func(ctx dataflow.Ctx) error {
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
	prev.Then(gate)
	gate.Then(j.Task("t4", dataflow.Props{Ops: 1e6}, nil))
	return j
}

// soloReport runs the job alone on an idle Workers=1 runtime — the byte
// reference every served report must reproduce.
func soloReport(t testing.TB, j *dataflow.Job) *core.Report {
	t.Helper()
	rt, err := core.New(core.ExecConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func newTestCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	if cfg.Server.EpochWorkers == 0 {
		cfg.Server.EpochWorkers = 1
	}
	if cfg.Server.MaxBatch == 0 {
		cfg.Server.MaxBatch = 4
	}
	if cfg.Server.QueueDepth == 0 {
		cfg.Server.QueueDepth = 64
	}
	cfg.Server.Block = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) }) //nolint:errcheck
	return c
}

// TestShardedReportsSoloIdentical is the tentpole invariant: jobs routed
// across shards produce reports byte-identical (Report.String()) to their
// solo runs, while the routing layer spreads them over more than one shard
// and prices every admission through the fabric ledger.
func TestShardedReportsSoloIdentical(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	perShard := map[string]int{}
	for i := 0; i < 16; i++ {
		j := chainJob(fmt.Sprintf("job%02d", i))
		want := soloReport(t, j).String()
		rep, err := c.Submit(context.Background(), chainJob(j.Name()))
		if err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
		if got := rep.String(); got != want {
			t.Fatalf("%s on %s diverges from solo:\n got: %s\nwant: %s", j.Name(), rep.Shard, got, want)
		}
		if rep.Shard == "" {
			t.Fatalf("%s: report must carry its serving shard", j.Name())
		}
		perShard[rep.Shard]++
	}
	if len(perShard) < 2 {
		t.Fatalf("16 distinct keys landed on one shard: %v", perShard)
	}
	for _, st := range c.Stats() {
		if st.Submitted != st.Admitted || st.Completed != st.Submitted {
			t.Errorf("%s: submitted %d admitted %d completed %d", st.Name, st.Submitted, st.Admitted, st.Completed)
		}
		// Every submission wrote one ledger record to its home node, plus
		// the slab alloc: the fabric attributes the traffic per shard.
		if st.Fabric.Verbs < uint64(st.Submitted)+1 {
			t.Errorf("%s: fabric verbs %d < ledger writes %d + alloc", st.Name, st.Fabric.Verbs, st.Submitted)
		}
		if st.Fabric.Bytes < uint64(st.Submitted)*ledgerRecordBytes {
			t.Errorf("%s: fabric bytes %d < %d ledger bytes", st.Name, st.Fabric.Bytes, st.Submitted*ledgerRecordBytes)
		}
	}
}

// TestRoutingDeterministic pins the control-plane property: routing and
// per-shard admission fingerprints are pure functions of (membership,
// weights, vnodes, submission stream) — two identically configured
// clusters agree byte-for-byte, with and without failures.
func TestRoutingDeterministic(t *testing.T) {
	build := func() *Cluster { return newTestCluster(t, Config{Shards: 3, Weights: []int{1, 2, 1}}) }
	a, b := build(), build()
	if fa, fb := a.RouteFingerprint(4096), b.RouteFingerprint(4096); fa != fb {
		t.Fatalf("identical clusters route differently: %016x != %016x", fa, fb)
	}
	if fa, fc := a.RouteFingerprint(4096), newTestCluster(t, Config{Shards: 3}).RouteFingerprint(4096); fa == fc {
		t.Fatal("weights must change the assignment fingerprint")
	}

	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("stream%02d", i)
		if _, err := a.Submit(context.Background(), chainJob(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Submit(context.Background(), chainJob(name)); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	for i := range sa {
		if sa[i].AdmissionSig != sb[i].AdmissionSig || sa[i].Submitted != sb[i].Submitted {
			t.Errorf("shard %d: %s/%d != %s/%d", i,
				sa[i].AdmissionSig, sa[i].Submitted, sb[i].AdmissionSig, sb[i].Submitted)
		}
	}

	// Failures re-route identically too: the ring point set never changes,
	// only the skip set.
	if err := a.Partition(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Partition(1); err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.RouteFingerprint(4096), b.RouteFingerprint(4096); fa != fb {
		t.Fatalf("post-failure routing diverges: %016x != %016x", fa, fb)
	}
	if err := a.Heal(1); err != nil {
		t.Fatal(err)
	}
	if fa := a.RouteFingerprint(4096); fa != b.RouteFingerprint(4096) {
		_ = fa // b still partitioned: fingerprints must differ
	} else {
		t.Fatal("healed cluster must route differently from a partitioned one")
	}
}

// TestWeightedRingSkew checks weighted virtual nodes tilt the key space
// toward heavier shards.
func TestWeightedRingSkew(t *testing.T) {
	r := buildRing([]string{"s0", "s1"}, []int{1, 3}, 64)
	alive := func(int) bool { return true }
	counts := [2]int{}
	key := uint64(1)
	for i := 0; i < 8192; i++ {
		key = key*6364136223846793005 + 1442695040888963407
		counts[r.successor(key, alive)]++
	}
	if counts[1] <= counts[0] {
		t.Fatalf("weight-3 shard must absorb more keys: %v", counts)
	}
}

// findJobFor scans names until one routes to the wanted shard.
func findJobFor(t *testing.T, c *Cluster, shard int, prefix string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if c.Route(Signature(gateJob(name, nil, nil))) == shard {
			return name
		}
	}
	t.Fatalf("no key routes to shard %d", shard)
	return ""
}

// TestFailoverReroutesByteIdentical is the failover gate, run at the
// worker counts the acceptance list names: a shard crashes with jobs in
// flight — one parked mid-execution and three mates that are either queued
// behind it (EpochWorkers=1) or parked in their own first task on the same
// release channel (EpochWorkers=4), so none can finish on the victim before
// the crash lands; every ticket still settles, re-routed to the survivor,
// and — recovery off, so the survivor re-runs from scratch — every report is
// byte-identical to the job's solo run.
func TestFailoverReroutesByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("EpochWorkers=%d", workers), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Shards: 2,
				Server: core.ServerConfig{EpochWorkers: workers, MaxBatch: 1},
			})
			victim := 0
			gateName := findJobFor(t, c, victim, "gate")
			mateNames := make([]string, 0, 3)
			for i := 0; len(mateNames) < 3; i++ {
				name := fmt.Sprintf("mate-%d", i)
				if c.Route(Signature(chainJob(name))) == victim {
					mateNames = append(mateNames, name)
				}
			}

			solo := map[string]string{gateName: soloReport(t, gateJob(gateName, nil, nil)).String()}
			for _, n := range mateNames {
				solo[n] = soloReport(t, chainJob(n)).String()
			}

			started := make(chan struct{}, 1)
			release := make(chan struct{})
			tks := map[string]*core.Ticket{}
			gtk, err := c.SubmitAsync(context.Background(), gateJob(gateName, started, release))
			if err != nil {
				t.Fatal(err)
			}
			tks[gateName] = gtk
			<-started // the victim shard is now executing the gate job
			for _, n := range mateNames {
				tk, err := c.SubmitAsync(context.Background(), heldChainJob(n, release))
				if err != nil {
					t.Fatal(err)
				}
				tks[n] = tk
			}

			if err := c.Crash(victim); err != nil {
				t.Fatal(err)
			}
			close(release) // let the doomed attempt drain; re-runs pass through

			survivor := c.shards[1-victim].name
			for name, tk := range tks {
				rep, err := tk.Wait(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if rep.Shard != survivor {
					t.Errorf("%s served by %s, want survivor %s", name, rep.Shard, survivor)
				}
				if got := rep.String(); got != solo[name] {
					t.Errorf("%s: re-routed report diverges from solo:\n got: %s\nwant: %s", name, got, solo[name])
				}
			}
			st := c.Stats()
			if st[1-victim].Rerouted != int64(len(tks)) {
				t.Errorf("survivor adopted %d jobs, want %d", st[1-victim].Rerouted, len(tks))
			}
			if !st[victim].Down {
				t.Error("crashed shard must report Down")
			}
			if _, ok := c.Fabric().Owner(c.shards[victim].slab); !ok {
				t.Error("dead shard's ledger lease must survive in the control plane")
			}
		})
	}
}

// TestFailoverPartialReplayResumes turns recovery on: the survivor resumes
// the crashed job from the dead shard's checkpoints (shared namespace via
// SubmitOptions.ResumeID) instead of re-running it — the cross-shard
// partial-replay path.
func TestFailoverPartialReplayResumes(t *testing.T) {
	c := newTestCluster(t, Config{
		Shards: 2,
		Server: core.ServerConfig{
			EpochWorkers: 1, MaxBatch: 1,
			Recovery: &core.RecoveryPolicy{MaxAttempts: 2, PartialReplay: true},
		},
	})
	victim := 0
	name := findJobFor(t, c, victim, "resume")
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	tk, err := c.SubmitAsync(context.Background(), gateJob(name, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started // t0..t2 completed and checkpointed on the victim
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	close(release)
	rep, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard != c.shards[1-victim].name {
		t.Fatalf("served by %s, want the survivor", rep.Shard)
	}
	if rep.SkippedTasks < 3 {
		t.Fatalf("survivor must restore the dead shard's checkpoints, skipped %d tasks", rep.SkippedTasks)
	}
	if len(rep.Tasks) != 5 {
		t.Fatalf("recovered report must still cover all 5 tasks, got %d", len(rep.Tasks))
	}
	if got := c.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "server_recovered"); got < 1 {
		t.Errorf("server_recovered counter = %d, want ≥1", got)
	}
	// The router owns the namespace and forgets it once settled.
	if n := c.Checkpointer().Snapshots(); n != 0 {
		t.Errorf("%d checkpoint entries leaked after settlement", n)
	}
}

// TestClusterSoak drives concurrent submitters, in-epoch rebalance sweeps,
// and a crash/restart cycle through a 2-shard cluster — the -race workout
// for the router's locking. Every submission must settle.
func TestClusterSoak(t *testing.T) {
	c := newTestCluster(t, Config{
		Shards: 2,
		Server: core.ServerConfig{EpochWorkers: 2, MaxBatch: 4},
	})
	const (
		submitters = 3
		perG       = 20
	)
	var wg sync.WaitGroup
	var settled, failed int64
	var mu sync.Mutex
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rep, err := c.Submit(context.Background(), chainJob(fmt.Sprintf("soak-%d-%d", g, i)))
				mu.Lock()
				if err != nil {
					failed++
				} else {
					settled++
					if rep.Shard == "" {
						t.Error("soak report lost its shard label")
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	// Maintenance sweeps concurrent with serving (satellite 1): each runs
	// in its own epoch, so serving reports stay solo-identical throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c.Rebalance(time.Duration(i) * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if failed != 0 {
		t.Errorf("%d soak submissions failed", failed)
	}
	if settled != submitters*perG {
		t.Errorf("settled %d of %d", settled, submitters*perG)
	}
	var completed int64
	for _, st := range c.Stats() {
		completed += st.Completed
	}
	if completed != settled {
		t.Errorf("shards completed %d, tickets settled %d", completed, settled)
	}
}

// TestClusterClosedRejects pins the shutdown contract.
func TestClusterClosedRejects(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	if err := c.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitAsync(context.Background(), chainJob("late")); err != ErrClosed {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}
