package shard

import (
	"context"
	"fmt"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// RouteFingerprint hashes the current shard assignment of n synthetic
// signatures — the membership-determinism witness: two clusters with the
// same shard count, weights, vnodes, and down set produce identical
// fingerprints.
func (c *Cluster) RouteFingerprint(n int) uint64 {
	const fnvOffset, fnvPrime = 0xcbf29ce484222325, 0x100000001b3
	var h uint64 = fnvOffset
	key := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		key ^= key << 13
		key ^= key >> 7
		key ^= key << 17
		idx := c.Route(key)
		h ^= uint64(idx) + 1
		h *= fnvPrime
	}
	return h
}

// ledger returns the ledger slab of shard i's current life.
func (c *Cluster) ledger(i int) cluster.SlabID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slabs[c.st.shards[i].num]
}

// leases lists every lease held on the fabric, whoever holds it.
func (c *Cluster) leases() []cluster.SlabID {
	var out []cluster.SlabID
	for _, sh := range c.shards {
		out = append(out, c.Fabric().LeasesOf(sh.name)...)
	}
	slices.SortFunc(out, func(a, b cluster.SlabID) int { return strings.Compare(a.String(), b.String()) })
	return out
}

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
// submission stream) — two identically configured clusters agree
// byte-for-byte, with and without failures.
func TestRoutingDeterministic(t *testing.T) {
	build := func() *Cluster { return newTestCluster(t, Config{Shards: 3}) }
	a, b := build(), build()
	if fa, fb := a.RouteFingerprint(4096), b.RouteFingerprint(4096); fa != fb {
		t.Fatalf("identical clusters route differently: %016x != %016x", fa, fb)
	}
	// A shard that has decided nothing renders the FNV-64a offset basis.
	for i, s := range a.Stats() {
		if s.AdmissionSig != "cbf29ce484222325" {
			t.Errorf("shard %d before any submission: AdmissionSig %s, want the offset basis", i, s.AdmissionSig)
		}
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
	// The fingerprints are pinned: the 24 submissions split 2/16/6 over the
	// ring, every one admitted.
	want := []struct {
		sig       string
		submitted int64
	}{{"09086307b5a0ebf7", 2}, {"15ac6239832e2a75", 16}, {"425925eec98bd38b", 6}}
	for i := range sa {
		if sa[i].AdmissionSig != sb[i].AdmissionSig || sa[i].Submitted != sb[i].Submitted {
			t.Errorf("shard %d: %s/%d != %s/%d", i,
				sa[i].AdmissionSig, sa[i].Submitted, sb[i].AdmissionSig, sb[i].Submitted)
		}
		if sa[i].AdmissionSig != want[i].sig || sa[i].Submitted != want[i].submitted {
			t.Errorf("shard %d: %s/%d, want %s/%d", i, sa[i].AdmissionSig, sa[i].Submitted, want[i].sig, want[i].submitted)
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

// TestTrackLoadChargesTheDecidingShard: a submission whose home node died
// without the router knowing is priced once and charged once, to the
// survivor that admitted it — not also to the home shard whose failed ledger
// write detected the crash.
func TestTrackLoadChargesTheDecidingShard(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, TrackLoad: true})
	name := findJobFor(t, c, 0, "load")
	if err := c.fabric.Crash(c.shards[0].name); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Submit(context.Background(), gateJob(name, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard != c.shards[1].name {
		t.Fatalf("served on %q, want the survivor %s", rep.Shard, c.shards[1].name)
	}
	rt := c.Runtime()
	est, _, err := sched.EstimateJob(gateJob(name, nil, nil), rt.Topology(), rt.Scheduler())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, st := range c.Stats() {
		sum += st.EstWorkNs
	}
	if sum != est.Makespan.Nanoseconds() {
		t.Errorf("shards' EstWorkNs sum to %d, want one estimate, %d", sum, est.Makespan.Nanoseconds())
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
			// The crash destroyed the dead life's ledger, and its lease with it.
			if slab := c.ledger(victim); slices.Contains(c.leases(), slab) {
				t.Errorf("the crashed shard's ledger %s is still leased", slab)
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

// adopted reads how many ledgers survivors have adopted.
func adopted(c *Cluster) int64 {
	return c.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "shard_ledger_adopted")
}

// TestIdleShardCrashHandsOffItsLedger: a shard that dies with nothing in
// flight still ends its life, with no watcher to fail over. After a
// partition the ring successor adopts its ledger; after a crash the ledger
// died with the node, and nobody leases it.
func TestIdleShardCrashHandsOffItsLedger(t *testing.T) {
	for _, crash := range []bool{true, false} {
		c := newTestCluster(t, Config{Shards: 2})
		slab := c.ledger(0)
		kill, want, adoptions := c.Partition, []cluster.SlabID{slab, c.ledger(1)}, int64(1)
		if crash {
			kill, want, adoptions = c.Crash, []cluster.SlabID{c.ledger(1)}, 0
		}
		if err := kill(0); err != nil {
			t.Fatal(err)
		}
		if leases := c.Fabric().LeasesOf(c.shards[0].name); len(leases) != 0 {
			t.Errorf("crash=%v: dead shard still leases %v", crash, leases)
		}
		if got := c.Fabric().LeasesOf(c.shards[1].name); !slices.Equal(got, want) {
			t.Errorf("crash=%v: survivor leases %v, want %v", crash, got, want)
		}
		if n := adopted(c); n != adoptions {
			t.Errorf("crash=%v: shard_ledger_adopted = %d, want %d", crash, n, adoptions)
		}
	}
}

// TestEveryLifeHandsOffItsLedger crashes a shard with a job in flight,
// restarts it before the job's watcher wakes, and partitions it with a
// second job in flight. The first life's ledger died with the crash, and
// nobody leases it; the second life's goes to the survivor, once, at the
// partition: the watcher that woke into the shard's second life adopted
// nothing of it.
func TestEveryLifeHandsOffItsLedger(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Server: core.ServerConfig{EpochWorkers: 1, MaxBatch: 1}})
	var slabs []cluster.SlabID
	for round, prefix := range []string{"life1", "life2"} {
		name := findJobFor(t, c, 0, prefix)
		started := make(chan struct{}, 1)
		release := make(chan struct{})
		tk, err := c.SubmitAsync(context.Background(), gateJob(name, started, release))
		if err != nil {
			t.Fatal(err)
		}
		<-started
		slabs = append(slabs, c.ledger(0))
		kill := c.Crash
		if round == 1 {
			kill = c.Partition
		}
		if err := kill(0); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if err := c.Restart(0); err != nil {
				t.Fatal(err)
			}
		}
		close(release)
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if leases := c.Fabric().LeasesOf(c.shards[0].name); len(leases) != 0 {
		t.Errorf("dead shard still leases %v", leases)
	}
	if got, want := c.leases(), []cluster.SlabID{slabs[1], c.ledger(1)}; !slices.Equal(got, want) {
		t.Errorf("the fabric leases %v, want the survivor's ledger and the partitioned life's %v", got, want)
	}
	if n := adopted(c); n != 1 {
		t.Errorf("shard_ledger_adopted = %d, want 1", n)
	}
}

// TestReviveKeepsALiveShardsLife: healing or restarting a shard that is up
// starts no new life.
func TestReviveKeepsALiveShardsLife(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	want := c.Fabric().LeasesOf(c.shards[0].name)
	if err := c.Heal(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Fabric().LeasesOf(c.shards[0].name); !slices.Equal(got, want) {
		t.Errorf("leases %v, want %v", got, want)
	}
	if n := c.Runtime().Telemetry().Counter(telemetry.LayerRuntime, "shard_up"); n != 0 {
		t.Errorf("shard_up = %d, want 0", n)
	}
}

// TestClusterSoak drives concurrent submitters, rebalance sweeps,
// and a crash/restart cycle through a 2-shard cluster — the -race workout
// for the router's locking. Shard 1 crashes once a third of the submissions
// have settled and restarts at two thirds, so both land while traffic is in
// flight. Every submission must settle.
func TestClusterSoak(t *testing.T) {
	c := newTestCluster(t, Config{
		Shards: 2,
		Server: core.ServerConfig{EpochWorkers: 2, MaxBatch: 4},
	})
	const (
		submitters = 3
		perG       = 20
		crashAt    = submitters * perG / 3
		restartAt  = 2 * crashAt
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
					t.Errorf("soak submission %d-%d failed: %v", g, i, err)
				} else {
					settled++
					if rep.Shard == "" {
						t.Error("soak report lost its shard label")
					}
				}
				switch settled + failed {
				case crashAt:
					if err := c.Crash(1); err != nil {
						t.Error(err)
					}
				case restartAt:
					if err := c.Restart(1); err != nil {
						t.Error(err)
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	// Maintenance sweeps concurrent with serving: each runs on its own clock,
	// so serving reports stay solo-identical throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c.Rebalance(time.Duration(i) * time.Millisecond)
		}
	}()
	wg.Wait()
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
	// Every ticket settled, so no life registers a ticket; and the crash
	// destroyed shard 1's first ledger with its lease, so what the fabric
	// leases is exactly the live lives' ledgers.
	c.mu.Lock()
	if len(c.st.tickets) != 0 || len(c.cancels) != 0 {
		t.Errorf("%d tickets and %d cancel funcs outlive their delivery", len(c.st.tickets), len(c.cancels))
	}
	c.mu.Unlock()
	if got, want := c.leases(), []cluster.SlabID{c.ledger(0), c.ledger(1)}; !slices.Equal(got, want) {
		t.Errorf("the fabric leases %v, want the live lives' ledgers %v", got, want)
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

// TestCloseDeliversEveryAdmission races submitters against Close. Each
// submission is admitted or refused with ErrClosed — never with a shard
// server's own ErrServerClosed — and when Close returns, every admission
// Stats counted has settled and every admitted ticket has its outcome: no
// watcher registers after Close stopped waiting for them.
func TestCloseDeliversEveryAdmission(t *testing.T) {
	for round := 0; round < 24; round++ {
		c, err := NewCluster(Config{Shards: 2, Server: core.ServerConfig{EpochWorkers: 1, MaxBatch: 4, QueueDepth: 8, Block: true}})
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu       sync.Mutex
			tickets  []*core.Ticket
			admitted atomic.Int64
			wg       sync.WaitGroup
		)
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					tk, err := c.SubmitAsync(context.Background(), chainJob(fmt.Sprintf("r%d-g%d-%d", round, g, i)))
					if err != nil {
						if err != ErrClosed {
							t.Errorf("round %d: a submission racing Close got %v, want ErrClosed", round, err)
						}
						return
					}
					admitted.Add(1)
					mu.Lock()
					tickets = append(tickets, tk)
					mu.Unlock()
				}
			}()
		}
		for admitted.Load() < int64(round) {
			goruntime.Gosched()
		}
		if err := c.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		var counted, settled int64
		for _, st := range c.Stats() {
			counted += st.Admitted + st.BestEffort
			settled += st.Completed + st.Failed
		}
		wg.Wait()
		if counted != settled || counted != int64(len(tickets)) {
			t.Fatalf("round %d: when Close returned %d admissions were counted and %d settled; %d tickets were handed out", round, counted, settled, len(tickets))
		}
		for _, tk := range tickets {
			select {
			case <-tk.Done():
			default:
				t.Fatalf("round %d: ticket %d admitted but not delivered after Close", round, tk.ID())
			}
		}
	}
}
