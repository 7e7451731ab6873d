package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Errors reported by the routing front end.
var (
	// ErrNoShards means no alive shard remains to route or re-route to.
	ErrNoShards = errors.New("shard: no alive shard")
	// ErrClosed is returned by submissions after Close started.
	ErrClosed = errors.New("shard: cluster closed")
)

// What every cluster is built with, beside its Config.
const (
	ledgerRecordBytes       = 32       // one admission record: sig, ticket ID, arrival, deadline
	ledgerSlabBytes   int64 = 1 << 20  // each shard's ledger slab
	poolBytes         int64 = 64 << 20 // a node's room for other shards' migrated regions (Migrate)
	spillWatermark          = 0.9      // a remote host's fill cap for migrated regions (Migrate)
	vnodes                  = 64       // virtual nodes each shard puts on the ring
)

// Config assembles a Cluster. Zero fields get serving defaults. What no
// caller varies is a constant, not a field: ledgerSlabBytes, poolBytes,
// spillWatermark and vnodes above, the reference single-node testbed as
// every shard's private hardware graph, and the default cluster.Config
// fabric the shards share.
type Config struct {
	// Shards is the number of server shards (default 2).
	Shards int
	// Server is the per-shard serving template. ExecConfig.Topology must be
	// nil: every shard's server builds its own private runtime (own topology
	// instance, region manager, epoch pool) so shards never share device
	// queues. Telemetry, if set, is shared by all shards; nil builds one
	// shared registry. Recovery, if set, enables cross-shard failover
	// replay: the cluster replaces the policy's checkpointer with one shared
	// checkpointer over a replicated fabric store, so a survivor can restore
	// what a dead shard checkpointed.
	Server core.ServerConfig
	// TrackLoad prices every routed job with the scheduler's estimator
	// (core.Runtime.Plan) and accumulates per-shard estimated virtual
	// work — the router-side load view Stats reports. Off by default. The
	// price comes with the plan the serving shard executes, so a job's
	// first submission plans once, here, and a resubmission not at all.
	TrackLoad bool
	// Migrate enables cross-shard region migration: every shard gets a
	// cluster.RegionPool wired into its region manager as the remote
	// exporter, and Rebalance sweeps may evict cold regions past the local
	// tier hierarchy into the ring successors' fabric memory. Payloads are
	// mirrored into the cluster-shared checkpoint store, so a region
	// survives the crash of the memory node hosting its slab.
	Migrate bool
	// Rebalance is the tiering policy Cluster.Rebalance sweeps run with.
	// With Migrate on and EvictWatermark unset, EvictWatermark defaults to
	// 0.95 so only genuinely full devices shed regions to the cluster.
	Rebalance region.RebalancePolicy
}

// Shard is one serving shard: a core.Server over its own runtime, a fabric
// node exporting its ledger slab, and the router-side accounting.
type Shard struct {
	name string // fabric node name
	srv  *core.Server
	pool *cluster.RegionPool // remote-exporter for this shard's regions; nil without Migrate

	// Accounting. stats holds the counters (Cluster.Stats fills in the
	// rest); sig fingerprints this shard's primary routing decisions in
	// submission order (failover re-submissions are excluded: their timing
	// is wall-clock), reproducible when submissions come from one goroutine.
	acctMu sync.Mutex
	stats  ShardStats
	sig    uint64 // running FNV-64a, fnvOffset over no decisions
}

// Name returns the shard's fabric node name ("shard0", "shard1", ...).
func (sh *Shard) Name() string { return sh.name }

// Server returns the shard's serving engine.
func (sh *Shard) Server() *core.Server { return sh.srv }

// ShardStats is one shard's routing, admission, and fabric accounting.
type ShardStats struct {
	Name string
	Down bool
	// Primary routing decisions (failover re-submissions excluded).
	Submitted     int64
	Admitted      int64 // guaranteed tier
	BestEffort    int64
	RejectedSLO   int64
	RejectedQueue int64
	Errors        int64
	// Completion ledger, including adopted re-routes.
	Completed int64
	Failed    int64
	Rerouted  int64
	SLOMissed int64 // guaranteed-tier completions past their virtual deadline
	// EstWorkNs is the cumulative estimated virtual work routed to this
	// shard (Config.TrackLoad).
	EstWorkNs int64
	// AdmissionSig fingerprints the shard's decision stream (FNV-64a).
	AdmissionSig string
	// Fabric counts the verbs/bytes that hit this shard's fabric node —
	// ledger writes, failover transfers, and migrated region payloads
	// parked here by other shards.
	Fabric cluster.NodeStats
	// Migration counts the regions this shard exported to (and recalled
	// from) the cluster pool. Zero-valued without Config.Migrate.
	Migration cluster.RegionPoolStats
}

// Cluster is the sharded serving front end. Submissions are routed by
// consistent hash of the job signature; it is a core.Submitter, like each
// shard's core.Server. Safe for concurrent use; reproducible fingerprints
// also need a single submitting goroutine.
type Cluster struct {
	cfg     Config
	fabric  *cluster.Fabric
	shards  []*Shard
	tel     *telemetry.Registry
	ck      *core.Checkpointer // shared across shards; nil without recovery
	ckStore fault.Store        // backing store for ck and migration backups; nil without either
	seq     atomic.Uint64      // routed ticket ids
	wg      sync.WaitGroup     // in-flight watchers
	// gate orders admission against Close: a submission holds the read side
	// from its closed check through wg.Add, and Close flips closed under the
	// write side, so its Wait misses no watcher.
	gate   sync.RWMutex
	closed bool

	mu      sync.Mutex                    // guards st, slabs and cancels: step runs under it
	st      state                         // the routing protocol (protocol.go)
	slabs   map[int]cluster.SlabID        // ledger slabs by life number
	cancels map[uint64]context.CancelFunc // members' contexts by routed ticket ID
}

var _ core.Submitter = (*Cluster)(nil)

// NewCluster builds the fabric, the shards (each with a private runtime),
// and the routing ring, and leases every shard's ledger slab. The cluster
// is serving when NewCluster returns; Close drains it.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Migrate && cfg.Rebalance.EvictWatermark <= 0 {
		cfg.Rebalance.EvictWatermark = 0.95
	}
	if cfg.Server.Topology != nil {
		return nil, errors.New("shard: Server.Topology must be nil — every shard builds its own")
	}
	tel := cfg.Server.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	c := &Cluster{cfg: cfg, fabric: cluster.NewFabric(cluster.Config{}), tel: tel,
		slabs: map[int]cluster.SlabID{}, cancels: map[uint64]context.CancelFunc{}}

	// Cross-shard durable state: one default store, shared by every shard.
	// Failover replay restores from it; migration mirrors exported region
	// payloads into it.
	if cfg.Server.Recovery != nil || cfg.Migrate {
		store, err := fault.NewDefaultStore()
		if err != nil {
			return nil, err
		}
		c.ckStore = store
		if cfg.Server.Recovery != nil {
			c.ck = core.NewCheckpointer(store)
		}
	}

	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
	}
	c.st = state{ring: buildRing(names), shards: make([]lifeState, cfg.Shards), tickets: map[uint64]ticketState{}, lives: cfg.Shards}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := c.buildShard(i, names[i])
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// buildShard builds shard i: its fabric node, ledger slab and server.
func (c *Cluster) buildShard(i int, name string) (*Shard, error) {
	// With migration on, each shard node exports poolBytes beyond its
	// ledger: the memory other shards park cold regions in.
	capacity := ledgerSlabBytes
	if c.cfg.Migrate {
		capacity += poolBytes
	}
	if err := c.fabric.AddNode(name, capacity); err != nil {
		return nil, err
	}
	slab, err := c.newLedger(name)
	if err != nil {
		return nil, err
	}
	c.st.shards[i].num = i + 1 // shard i starts in life i+1
	c.slabs[i+1] = slab
	sh := &Shard{name: name, sig: fnvOffset}

	scfg := c.cfg.Server // copy of the template
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	scfg.Topology, scfg.Telemetry = topo, c.tel
	if scfg.Recovery != nil {
		rp := *scfg.Recovery
		rp.Checkpointer = c.ck
		scfg.Recovery = &rp
	}
	sh.srv, err = core.NewServer(scfg)
	if err != nil {
		return nil, err
	}
	if c.cfg.Migrate {
		spill := func(int64) []string { return c.spillTargets(i) }
		sh.pool = cluster.NewRegionPool(c.fabric, name, spill, spillWatermark, c.ckStore, c.tel)
		sh.srv.Runtime().Regions().SetExporter(sh.pool)
	}
	return sh, nil
}

// spillTargets lists the alive shards' fabric nodes in ring order after
// shard i — the preference order shard i's region pool exports to. Never
// includes the shard itself: spilling home would be a no-op tier.
func (c *Cluster) spillTargets(i int) []string {
	c.mu.Lock()
	idxs := c.st.ring.walkFrom(i, c.st.alive)
	c.mu.Unlock()
	out := make([]string, len(idxs))
	for j, idx := range idxs {
		out[j] = c.shards[idx].name
	}
	return out
}

// newLedger allocates and leases a fresh ledger slab on the shard's node.
func (c *Cluster) newLedger(name string) (cluster.SlabID, error) {
	slab, _, err := c.fabric.AllocSlab(name, ledgerSlabBytes)
	if err == nil {
		_, err = c.fabric.Lease(slab, name)
	}
	return slab, err
}

// Shards returns the shards in id order.
func (c *Cluster) Shards() []*Shard { return append([]*Shard(nil), c.shards...) }

// Fabric exposes the interconnect (tests, stats, fault injection).
func (c *Cluster) Fabric() *cluster.Fabric { return c.fabric }

// Runtime returns shard 0's runtime. All shards share one telemetry
// registry and identical topologies, so it gives the cluster-wide view.
func (c *Cluster) Runtime() *core.Runtime { return c.shards[0].srv.Runtime() }

// Checkpointer returns the shared recovery checkpointer, nil without Recovery.
func (c *Cluster) Checkpointer() *core.Checkpointer { return c.ck }

// down reports whether shard i's current life has ended.
func (c *Cluster) down(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.shards[i].dead
}

// Route returns the shard a job with this signature currently routes to,
// or -1 when none is alive. Pure function of (ring, membership): every
// front end agrees without coordination.
func (c *Cluster) Route(sig uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.ring.successor(sig, c.st.alive)
}

// note folds one primary admission decision into the shard's fingerprint
// and counters (n is the decision's own), with the job's estimated work
// (Config.TrackLoad). Decision bytes mirror loadgen's signature alphabet.
func (sh *Shard) note(d byte, n *int64, est time.Duration) {
	sh.acctMu.Lock()
	sh.sig = (sh.sig ^ uint64(d)) * fnvPrime
	sh.stats.Submitted++
	*n++
	sh.stats.EstWorkNs += est.Nanoseconds()
	sh.acctMu.Unlock()
}

// count adds d to one of the shard's counters.
func (sh *Shard) count(n *int64, d int64) {
	sh.acctMu.Lock()
	*n += d
	sh.acctMu.Unlock()
}

// noteComplete accounts one delivered report.
func (sh *Shard) noteComplete(rep *core.Report) {
	sh.count(&sh.stats.Completed, 1)
	if rep.SLODeadline > 0 && !rep.BestEffort && rep.SLOWait+rep.Makespan > rep.SLODeadline {
		sh.count(&sh.stats.SLOMissed, 1)
	}
}

// routed is what the driver holds for a routed ticket beside its ticketState.
type routed struct {
	ctx context.Context
	job *dataflow.Job
	sig uint64
	opt core.SubmitOptions
	sh  *Shard       // the shard whose server last decided the job
	tk  *core.Ticket // the job's member there
}

// feed is the driver: it runs step on ev under c.mu, performs the effects,
// and feeds write and submission results back in until ticket r rests in a
// member (outPlaced) or is delivered. Control-plane effects run under c.mu,
// so no walk sees a life before its ledger is leased; writes, submissions
// and abandonment run outside it, on the submitter's or watcher's goroutine.
// r is nil for a fault; err is a refusal, or a failure to lease a ledger.
func (c *Cluster) feed(ev event, r *routed) (outcome, error) {
	var (
		buf  [4]effect
		slab cluster.SlabID
		mctx context.Context
		err  error
	)
	for next := true; next; {
		c.mu.Lock()
		effs := step(&c.st, ev, buf[:0])
		for _, e := range effs {
			switch e.kind {
			case effWrite:
				slab = c.slabs[e.life]
			case effSubmit:
				var cancel context.CancelFunc
				mctx, cancel = context.WithCancel(r.ctx)
				c.cancels[e.ticket] = cancel
			case effCancel:
				if cancel := c.cancels[e.ticket]; cancel != nil {
					delete(c.cancels, e.ticket)
					cancel()
				}
			case effHandoff: // fails after a crash, which dropped the lease with the slab
				if _, herr := c.fabric.Handoff(c.slabs[e.life], c.shards[e.shard].name, c.shards[e.to].name); herr == nil {
					c.tel.Add(telemetry.LayerRuntime, "shard_ledger_adopted", 1)
				}
			case effFree: // a partitioned node kept the slab; a crashed one did not
				c.fabric.FreeSlab(c.slabs[e.life]) //nolint:errcheck // gone after a crash
				delete(c.slabs, e.life)
			case effStart:
				if c.slabs[e.life], err = c.newLedger(c.shards[e.shard].name); err == nil {
					c.tel.Add(telemetry.LayerRuntime, "shard_up", 1)
				}
			}
		}
		c.mu.Unlock()
		next = false
		for _, e := range effs {
			switch e.kind {
			case effWrite:
				ok := c.ledgerWrite(slab, e.seq, e.ticket, r)
				ev, next = event{kind: evLedger, ticket: e.ticket, shard: e.shard, life: e.life, ok: ok}, true
			case effSubmit:
				r.sh = c.shards[e.shard]
				r.opt.Shard = r.sh.name
				r.tk, err = r.sh.srv.SubmitAsync(mctx, r.job, r.opt)
				ev, next = event{kind: evServer, ticket: e.ticket, shard: e.shard, life: e.life, ok: err == nil}, true
			case effAbandon:
				c.tel.Add(telemetry.LayerRuntime, "shard_down", 1)
				// The region payloads are useless without the dead shard's
				// region table (its jobs re-materialize from checkpoints), so
				// the adopter frees their slabs.
				if pool, adopter := c.shards[e.shard].pool, ""; pool != nil {
					if e.to >= 0 {
						adopter = c.shards[e.to].name
					}
					pool.Abandon(adopter)
				}
			case effDeliver:
				return e.outcome, err
			}
		}
	}
	return outPlaced, err
}

// ledgerWrite appends one admission record to a ledger slab with a one-sided
// fabric Write. A failed write is the router's failure detector.
func (c *Cluster) ledgerWrite(slab cluster.SlabID, seq int64, id uint64, r *routed) bool {
	var rec [ledgerRecordBytes]byte
	binary.BigEndian.PutUint64(rec[0:], r.sig)
	binary.BigEndian.PutUint64(rec[8:], id)
	binary.BigEndian.PutUint64(rec[16:], uint64(r.opt.Arrival))
	binary.BigEndian.PutUint64(rec[24:], uint64(r.opt.Deadline))
	off := (seq % (ledgerSlabBytes / ledgerRecordBytes)) * ledgerRecordBytes
	_, err := c.fabric.Write(slab, off, rec[:])
	return err == nil
}

// Crash kills shard i: its fabric node loses its memory (cluster.Crash),
// and every in-flight submission on it is canceled and re-routed by its
// watcher to a surviving shard.
func (c *Cluster) Crash(i int) error { return c.fault(i, c.fabric.Crash, evCrash) }

// Partition cuts shard i off (memory preserved). The router treats it as
// down, as after a crash, and a survivor adopts its ledger.
func (c *Cluster) Partition(i int) error { return c.fault(i, c.fabric.Partition, evPartition) }

// Heal reconnects a partitioned shard and returns it to the ring.
func (c *Cluster) Heal(i int) error { return c.fault(i, c.fabric.Heal, evHeal) }

// Restart brings a crashed shard back (empty) and returns it to the ring.
func (c *Cluster) Restart(i int) error { return c.fault(i, c.fabric.Restart, evRestart) }

// fault applies op to shard i's fabric node, then tells the protocol.
func (c *Cluster) fault(i int, op func(string) error, kind eventKind) error {
	if err := op(c.shards[i].name); err != nil {
		return err
	}
	_, err := c.feed(event{kind: kind, shard: i}, nil)
	return err
}

// SubmitAsync consistent-hashes the job to its home shard, records the
// admission in the shard's ledger slab, and submits. The returned ticket is
// router-owned: if the home shard dies before the job completes, the router
// re-routes it to the ring successor (resuming from the dead shard's
// checkpoints when recovery is on), and the ticket observes the final
// outcome. Options and admission errors are core.Server's: the home shard's
// own SLO gate judges the submission.
func (c *Cluster) SubmitAsync(ctx context.Context, job *dataflow.Job, opts ...core.SubmitOptions) (*core.Ticket, error) {
	opt, err := core.ResolveOptions(opts)
	if err != nil {
		return nil, err
	}
	c.gate.RLock()
	defer c.gate.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	if job == nil {
		return nil, errors.New("core: nil job")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ticketID := c.seq.Add(1)
	if c.ck != nil && opt.ResumeID == "" {
		// One checkpoint namespace per submission, owned by the router:
		// every shard attempt (home and failover) shares it.
		opt.ResumeID = c.ck.NewRunID(job.Name())
	}

	// Priced once, whatever the walk: every shard's topology and scheduler
	// are the same, so the estimate is too, and the plan it comes with is the
	// one the shard that serves the job executes (core.Runtime.Plan).
	var est time.Duration
	if c.cfg.TrackLoad {
		if p, err := c.Runtime().Plan(job); err == nil {
			est = p.Estimate.Makespan
		}
	}

	r := routed{ctx: ctx, job: job, sig: Signature(job), opt: opt}
	o, err := c.feed(event{kind: evSubmit, ticket: ticketID, sig: r.sig}, &r)
	if o == outNoShard {
		return nil, ErrNoShards
	}
	st := &r.sh.stats
	d, n := byte('E'), &st.Errors
	switch {
	case o == outPlaced && r.tk.BestEffort():
		d, n = 'B', &st.BestEffort
	case o == outPlaced:
		d, n = 'A', &st.Admitted
	case errors.Is(err, core.ErrDeadline):
		d, n = 'S', &st.RejectedSLO
	case errors.Is(err, core.ErrQueueFull):
		d, n = 'Q', &st.RejectedQueue
	}
	r.sh.note(d, n, est)
	if o != outPlaced {
		return nil, err
	}
	rtk := core.NewRoutedTicket(ticketID, r.tk.BestEffort())
	c.wg.Add(1)
	go c.watch(rtk, r)
	return rtk, nil
}

// Submit is SubmitAsync — same unified options surface — followed by Wait
// on the same context.
func (c *Cluster) Submit(ctx context.Context, job *dataflow.Job, opts ...core.SubmitOptions) (*core.Report, error) {
	tk, err := c.SubmitAsync(ctx, job, opts...)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
}

// watch drives one routed ticket to its delivery: each time its member
// settles, step delivers it or, when the life it ran in ended, walks the
// ring again. A re-submission keeps the ResumeID, so tasks the dead shard
// checkpointed are restored, not re-executed.
func (c *Cluster) watch(rtk *core.Ticket, r routed) {
	defer c.wg.Done()
	r.opt.Preadmitted = true // a re-submission's admission was settled at the home shard
	for {
		rep, err := r.tk.Wait(nil) // the server always delivers exactly once
		from, ev := r.sh, event{kind: evSettle, ticket: rtk.ID()}
		if err != nil {
			ev = event{kind: evWake, ticket: rtk.ID(), gaveUp: r.ctx.Err() != nil}
		}
		o, serr := c.feed(ev, &r)
		switch o {
		case outPlaced:
			r.sh.count(&r.sh.stats.Rerouted, 1)
			c.tel.Add(telemetry.LayerRuntime, "shard_rerouted", 1)
			continue
		case outDone:
			from.noteComplete(rep)
		case outFailed: // the submitter gave up, or the job failed in a life that lived on
			rep = nil
			from.count(&from.stats.Failed, 1)
		case outNoShard:
			rep, err = nil, fmt.Errorf("shard: re-routing %s after %s died: %w", r.job.Name(), from.name, ErrNoShards)
		case outRefused:
			rep, err = nil, serr
			r.sh.count(&r.sh.stats.Errors, 1)
		}
		if c.ck != nil { // the router owns the submission's checkpoint namespace
			c.ck.Forget(r.opt.ResumeID)
		}
		rtk.Deliver(rep, err)
		return
	}
}

// Stats reports every shard's routing/admission/fabric accounting, in
// shard order.
func (c *Cluster) Stats() []ShardStats {
	byNode := c.fabric.StatsByNode()
	out := make([]ShardStats, len(c.shards))
	for i, sh := range c.shards {
		sh.acctMu.Lock()
		st, sig := sh.stats, sh.sig
		sh.acctMu.Unlock()
		st.Name, st.Down, st.AdmissionSig, st.Fabric = sh.name, c.down(i), fmt.Sprintf("%016x", sig), byNode[sh.name]
		if sh.pool != nil {
			st.Migration = sh.pool.Stats()
		}
		out[i] = st
	}
	return out
}

// Rebalance runs one region-tiering sweep on every alive shard's runtime,
// concurrently with serving: each sweep prices its migrations in a private
// clock view. With Config.Migrate it also evicts cold regions into the ring
// successors' pools and recalls hot ones. It returns the regions moved.
func (c *Cluster) Rebalance(now time.Duration) int {
	moved := 0
	for i, sh := range c.shards {
		if c.down(i) {
			continue
		}
		stats, err := sh.srv.Rebalance(now, c.cfg.Rebalance)
		if err == nil {
			moved += stats.Promoted + stats.Demoted + stats.Exported + stats.Recalled
		}
	}
	return moved
}

// MigrationStats sums every shard's region-pool counters — the cluster-wide
// view of cross-shard region traffic. Zero-valued without Config.Migrate.
func (c *Cluster) MigrationStats() cluster.RegionPoolStats {
	var out cluster.RegionPoolStats
	for _, sh := range c.shards {
		if sh.pool == nil {
			continue
		}
		st := sh.pool.Stats()
		out.Exported += st.Exported
		out.Recalled += st.Recalled
		out.HostLost += st.HostLost
		out.BytesOut += st.BytesOut
		out.BytesBack += st.BytesBack
		out.VerbTime += st.VerbTime
		out.Live += st.Live
	}
	return out
}

// Close stops admission, drains every shard (down ones included — their
// canceled jobs still need their workers to exit), and waits for all
// in-flight watchers. Safe to call more than once; a nil ctx means
// context.Background().
func (c *Cluster) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.gate.Lock()
	c.closed = true
	c.gate.Unlock()
	var firstErr error
	for _, sh := range c.shards {
		if err := sh.srv.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		if firstErr == nil {
			firstErr = ctx.Err()
		}
	}
	return firstErr
}
