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
	"repro/internal/sched"
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

// ledgerRecordBytes is the size of one admission record in a shard's ledger
// slab: signature, routed ticket id, arrival, deadline — 8 bytes each.
const ledgerRecordBytes = 32

// What every cluster is built with, beside its Config.
const (
	// ledgerSlabBytes sizes each shard's ledger slab.
	ledgerSlabBytes int64 = 1 << 20
	// poolBytes is the extra fabric capacity each shard node exports for
	// other shards' migrated regions (Migrate only).
	poolBytes int64 = 64 << 20
	// spillWatermark caps a remote host's fill fraction for migrated
	// regions (Migrate only).
	spillWatermark = 0.9
	// vnodes is the number of virtual nodes each shard puts on the ring.
	vnodes = 64
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
	// queues. Telemetry, if set, is shared by
	// all shards; nil builds one shared registry. Recovery, if set,
	// enables cross-shard failover replay: the cluster replaces the
	// policy's checkpointer with one shared checkpointer over a replicated
	// fabric store, so a survivor can restore what a dead shard
	// checkpointed.
	Server core.ServerConfig
	// TrackLoad prices every routed job with the scheduler's estimator
	// (sched.EstimateJob) and accumulates per-shard estimated virtual
	// work — the router-side load view Stats reports. Off by default:
	// it costs one HEFT preamble per submission.
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
// node exporting its ledger slab, and the router-side health/accounting
// state.
type Shard struct {
	id   int
	name string // fabric node name
	srv  *core.Server
	pool *cluster.RegionPool // remote-exporter for this shard's regions; nil without Migrate

	mu  sync.Mutex // guards cur and its lives' dead, seq and cancel
	cur *life      // the current incarnation; a dead one stays until revive

	// Admission fingerprint over this shard's primary routing decisions,
	// in submission order (failover re-submissions are excluded: their
	// timing is wall-clock). Reproducible when submissions come from one
	// goroutine, as the traffic harness does.
	sigMu sync.Mutex
	sig   uint64 // running FNV-64a, fnvOffset over no decisions

	submitted     atomic.Int64
	admitted      atomic.Int64
	bestEffort    atomic.Int64
	rejectedSLO   atomic.Int64
	rejectedQueue atomic.Int64
	errored       atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	rerouted      atomic.Int64 // failover re-submissions adopted by this shard
	sloMissed     atomic.Int64 // admitted guaranteed-tier jobs that missed their virtual deadline
	estWorkNs     atomic.Int64 // cumulative estimated virtual work routed here (TrackLoad)
}

// Name returns the shard's fabric node name ("shard0", "shard1", ...).
func (sh *Shard) Name() string { return sh.name }

// Server returns the shard's serving engine.
func (sh *Shard) Server() *core.Server { return sh.srv }

// life is one incarnation of a shard, from NewCluster or a revive to the
// markDown that ends it. A watcher keeps the life its job was placed in, so
// it learns whether that life ended whatever the shard did since.
type life struct {
	dead   bool
	slab   cluster.SlabID                // ledger slab, leased by the shard until adopted
	seq    int64                         // records written (ring-buffer cursor)
	cancel map[uint64]context.CancelFunc // in-flight submissions by routed ticket ID
}

// isDown reports whether the shard's current life has ended.
func (sh *Shard) isDown() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cur.dead
}

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
// consistent hash of the job signature; it is a core.Submitter, like the
// core.Server each shard runs, so harnesses drive either interchangeably. Safe for
// concurrent use; fingerprint reproducibility additionally requires a
// single submitting goroutine (same as the admission model's decision
// order).
type Cluster struct {
	cfg     Config
	fabric  *cluster.Fabric
	ring    *ring
	shards  []*Shard
	tel     *telemetry.Registry
	ck      *core.Checkpointer // shared across shards; nil without recovery
	ckStore fault.Store        // backing store for ck and migration backups; nil without either
	seq     atomic.Uint64      // routed ticket ids
	wg      sync.WaitGroup     // in-flight watchers
	closed  atomic.Bool
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
	c := &Cluster{cfg: cfg, fabric: cluster.NewFabric(cluster.Config{}), tel: tel}

	// Cross-shard durable state: one 2-way replicated store on a private
	// checkpoint fabric (pmem nodes), shared by every shard — a node crash
	// costs at most one replica of any snapshot. Failover replay uses it
	// through the shared checkpointer; migration mirrors exported region
	// payloads into it so a region survives its slab host's death.
	if cfg.Server.Recovery != nil || cfg.Migrate {
		ckFabric := cluster.NewFabric(cluster.Config{})
		for i := 0; i < 3; i++ {
			if err := ckFabric.AddNode(fmt.Sprintf("pmem%d", i), 1<<28); err != nil {
				return nil, err
			}
		}
		store, err := fault.NewReplicatedStore(ckFabric, 2)
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
	c.ring = buildRing(names)

	for i := 0; i < cfg.Shards; i++ {
		sh, err := c.buildShard(i, names[i])
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// buildShard constructs one shard: fabric node + leased ledger slab +
// server over a private runtime.
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
	l, err := c.newLife(name)
	if err != nil {
		return nil, err
	}
	sh := &Shard{id: i, name: name, cur: l, sig: fnvOffset}

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
		sh.pool = cluster.NewRegionPool(
			c.fabric, name,
			func(int64) []string { return c.spillTargets(i) },
			spillWatermark,
			&storeBackup{st: c.ckStore, ids: make(map[string]fault.ObjectID)},
			c.tel,
		)
		sh.srv.Runtime().Regions().SetExporter(sh.pool)
	}
	return sh, nil
}

// spillTargets lists the alive shards' fabric nodes in ring order after
// shard i — the preference order shard i's region pool exports to. Never
// includes the shard itself: spilling home would be a no-op tier.
func (c *Cluster) spillTargets(i int) []string {
	idxs := c.ring.walkFrom(i, c.alive)
	out := make([]string, len(idxs))
	for j, idx := range idxs {
		out[j] = c.shards[idx].name
	}
	return out
}

// storeBackup adapts the cluster-shared fault.Store to the narrow
// cluster.Backup interface a RegionPool mirrors payloads into (the region
// analogue of checkpoint snapshots; same pmem fabric, same replication).
type storeBackup struct {
	st  fault.Store
	mu  sync.Mutex
	ids map[string]fault.ObjectID
}

func (b *storeBackup) Save(key string, data []byte) (time.Duration, error) {
	id, d, err := b.st.Put(data)
	if err != nil {
		return d, err
	}
	b.mu.Lock()
	old, had := b.ids[key]
	b.ids[key] = id
	b.mu.Unlock()
	if had {
		b.st.Delete(old) //nolint:errcheck // replaced snapshot; best-effort GC
	}
	return d, nil
}

func (b *storeBackup) Load(key string) ([]byte, time.Duration, error) {
	b.mu.Lock()
	id, ok := b.ids[key]
	b.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("shard: no backup under %q", key)
	}
	return b.st.Get(id)
}

func (b *storeBackup) Discard(key string) {
	b.mu.Lock()
	id, ok := b.ids[key]
	delete(b.ids, key)
	b.mu.Unlock()
	if ok {
		b.st.Delete(id) //nolint:errcheck // best-effort GC
	}
}

// newLife allocates and leases a fresh ledger slab on the named shard's
// node: the start of one incarnation.
func (c *Cluster) newLife(name string) (*life, error) {
	slab, _, err := c.fabric.AllocSlab(name, ledgerSlabBytes)
	if err != nil {
		return nil, err
	}
	if _, err := c.fabric.Lease(slab, name); err != nil {
		return nil, err
	}
	return &life{slab: slab, cancel: make(map[uint64]context.CancelFunc)}, nil
}

// Shards returns the shards in id order.
func (c *Cluster) Shards() []*Shard { return append([]*Shard(nil), c.shards...) }

// Fabric exposes the interconnect (tests, stats, fault injection).
func (c *Cluster) Fabric() *cluster.Fabric { return c.fabric }

// Runtime returns shard 0's runtime. All shards share one telemetry
// registry and structurally identical topologies, so harnesses that price
// sample jobs or read aggregate counters (loadgen) see the cluster-wide
// view through it.
func (c *Cluster) Runtime() *core.Runtime { return c.shards[0].srv.Runtime() }

// Checkpointer returns the shared recovery checkpointer, nil without a
// Recovery template.
func (c *Cluster) Checkpointer() *core.Checkpointer { return c.ck }

// alive is the ring's liveness oracle.
func (c *Cluster) alive(i int) bool { return !c.shards[i].isDown() }

// Route returns the shard a job with this signature currently routes to,
// or -1 when none is alive. Pure function of (ring, membership): every
// front end agrees without coordination.
func (c *Cluster) Route(sig uint64) int { return c.ring.successor(sig, c.alive) }

// note folds one primary admission decision into the shard's fingerprint
// and counters. Decision bytes mirror loadgen's signature alphabet.
func (sh *Shard) note(d byte) {
	sh.sigMu.Lock()
	sh.sig ^= uint64(d)
	sh.sig *= fnvPrime
	sh.sigMu.Unlock()
	sh.submitted.Add(1)
	switch d {
	case 'A':
		sh.admitted.Add(1)
	case 'B':
		sh.bestEffort.Add(1)
	case 'S':
		sh.rejectedSLO.Add(1)
	case 'Q':
		sh.rejectedQueue.Add(1)
	default:
		sh.errored.Add(1)
	}
}

// admissionSig renders the fingerprint like loadgen.Result.AdmissionSig.
func (sh *Shard) admissionSig() string {
	sh.sigMu.Lock()
	defer sh.sigMu.Unlock()
	return fmt.Sprintf("%016x", sh.sig)
}

// noteComplete accounts one delivered report.
func (sh *Shard) noteComplete(rep *core.Report) {
	sh.completed.Add(1)
	if rep.SLODeadline > 0 && !rep.BestEffort && rep.SLOWait+rep.Makespan > rep.SLODeadline {
		sh.sloMissed.Add(1)
	}
}

// ledgerWrite appends one admission record to the ledger slab of the shard's
// current life with a one-sided fabric Write — the routing hop every
// submission pays, and what makes cross-shard traffic visible in the
// per-node fabric counters. Returns false when the shard's fabric node is
// unreachable (the router's failure detector).
func (c *Cluster) ledgerWrite(sh *Shard, sig, ticket uint64, opt core.SubmitOptions) bool {
	var rec [ledgerRecordBytes]byte
	binary.BigEndian.PutUint64(rec[0:], sig)
	binary.BigEndian.PutUint64(rec[8:], ticket)
	binary.BigEndian.PutUint64(rec[16:], uint64(opt.Arrival))
	binary.BigEndian.PutUint64(rec[24:], uint64(opt.Deadline))
	sh.mu.Lock()
	l := sh.cur
	off := (l.seq % (ledgerSlabBytes / ledgerRecordBytes)) * ledgerRecordBytes
	l.seq++
	sh.mu.Unlock()
	_, err := c.fabric.Write(l.slab, off, rec[:])
	return err == nil
}

// markDown ends the shard's current life: it synchronously cancels every
// queued and running submission placed in it (their watchers then re-route
// them), hands the life's ledger to the first alive ring successor with one
// control-plane Handoff — the dead node is not consulted — and has that
// successor adopt the shard's exported-region leases. Idempotent.
func (c *Cluster) markDown(sh *Shard) {
	sh.mu.Lock()
	l := sh.cur
	if l.dead {
		sh.mu.Unlock()
		return
	}
	l.dead = true
	cancels := make([]context.CancelFunc, 0, len(l.cancel))
	for _, cf := range l.cancel {
		cancels = append(cancels, cf)
	}
	sh.mu.Unlock()
	for _, cf := range cancels {
		cf()
	}
	c.tel.Add(telemetry.LayerRuntime, "shard_down", 1)
	adopter := ""
	if next := c.ring.walkFrom(sh.id, c.alive); len(next) > 0 {
		adopter = c.shards[next[0]].name
		c.fabric.Handoff(l.slab, sh.name, adopter) //nolint:errcheck // a healed life already freed it
		c.tel.Add(telemetry.LayerRuntime, "shard_ledger_adopted", 1)
	}
	if sh.pool != nil {
		// The region payloads are useless without the dead shard's region
		// table — its jobs re-materialize from checkpoints on re-route — so
		// freeing the slabs is the disposition, not copying them.
		sh.pool.Abandon(adopter)
	}
}

// revive starts a new life for a healed or restarted shard: a fresh ledger
// slab, and the shard back in the ring. A shard that is not down keeps its
// life.
func (c *Cluster) revive(sh *Shard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.cur.dead {
		return nil
	}
	// A partition preserves the node's memory, so the old ledger slab still
	// holds capacity; drop it before leasing a fresh one. After a crash the
	// slab died with the node and the free is a tolerated no-op.
	c.fabric.FreeSlab(sh.cur.slab) //nolint:errcheck // gone after a crash
	l, err := c.newLife(sh.name)
	if err != nil {
		return err
	}
	sh.cur = l
	c.tel.Add(telemetry.LayerRuntime, "shard_up", 1)
	return nil
}

// Crash kills shard i: its fabric node loses its memory (cluster.Crash)
// and every in-flight submission on it is canceled and re-routed by its
// watcher to a surviving shard.
func (c *Cluster) Crash(i int) error {
	if err := c.fabric.Crash(c.shards[i].name); err != nil {
		return err
	}
	c.markDown(c.shards[i])
	return nil
}

// Partition cuts shard i off (memory preserved). The router treats it as
// down: in-flight jobs are re-routed — a partitioned shard cannot deliver
// outcomes to the front end.
func (c *Cluster) Partition(i int) error {
	if err := c.fabric.Partition(c.shards[i].name); err != nil {
		return err
	}
	c.markDown(c.shards[i])
	return nil
}

// Heal reconnects a partitioned shard and returns it to the ring.
func (c *Cluster) Heal(i int) error {
	if err := c.fabric.Heal(c.shards[i].name); err != nil {
		return err
	}
	return c.revive(c.shards[i])
}

// Restart brings a crashed shard back (empty) and returns it to the ring.
func (c *Cluster) Restart(i int) error {
	if err := c.fabric.Restart(c.shards[i].name); err != nil {
		return err
	}
	return c.revive(c.shards[i])
}

// submit places a job in the shard's current life, under a context that also
// dies with that life (markDown cancels it), registered under the routed
// ticket id. The caller must leave the returned life once the ticket
// settled. errLifeEnded means the life was over before the job could run.
func (sh *Shard) submit(ctx context.Context, id uint64, job *dataflow.Job, opt core.SubmitOptions) (*core.Ticket, *life, error) {
	mctx, cancel := context.WithCancel(ctx)
	sh.mu.Lock()
	l := sh.cur
	if l.dead {
		sh.mu.Unlock()
		cancel()
		return nil, nil, errLifeEnded
	}
	l.cancel[id] = cancel
	sh.mu.Unlock()
	tk, err := sh.srv.SubmitAsync(mctx, job, opt)
	if err != nil {
		if sh.leave(l, id) {
			return nil, nil, errLifeEnded
		}
		return nil, nil, err
	}
	return tk, l, nil
}

// leave drops submission id from the life it was placed in and reports
// whether that life ended, even if the shard has come back up since.
func (sh *Shard) leave(l *life, id uint64) bool {
	sh.mu.Lock()
	cancel := l.cancel[id]
	delete(l.cancel, id)
	dead := l.dead
	sh.mu.Unlock()
	cancel()
	return dead
}

// errLifeEnded reports a submission whose shard died between routing and
// placement; place walks on.
var errLifeEnded = errors.New("shard: life ended")

// place walks the ring from the job's signature until a shard takes it:
// route, write the admission record to the shard's ledger (an unreachable
// shard is marked down), and submit (a shard that died meanwhile is passed
// over). It returns the deciding shard, the life the job runs in, and its
// ticket; sh is nil only when no alive shard remains. A primary submission
// and a re-submission after a death differ only by opt.Preadmitted.
func (c *Cluster) place(ctx context.Context, job *dataflow.Job, sig, id uint64, opt core.SubmitOptions) (*Shard, *life, *core.Ticket, error) {
	for hops := 0; hops <= len(c.shards); hops++ {
		idx := c.Route(sig)
		if idx < 0 {
			return nil, nil, nil, ErrNoShards
		}
		sh := c.shards[idx]
		if !c.ledgerWrite(sh, sig, id, opt) {
			c.markDown(sh)
			continue
		}
		opt.Shard = sh.name
		tk, l, err := sh.submit(ctx, id, job, opt)
		if errors.Is(err, errLifeEnded) {
			continue
		}
		return sh, l, tk, err
	}
	return nil, nil, nil, ErrNoShards
}

// SubmitAsync consistent-hashes the job to its home shard, records the
// admission in the shard's ledger slab (a one-sided fabric Write), and
// submits. The returned ticket is router-owned: if the home shard dies
// before the job completes, the router re-routes it to the ring successor
// — resuming from the dead shard's checkpoints when recovery is on — and
// the ticket observes the final outcome, wherever it ran.
//
// It shares core.Server's unified submission surface: at most one
// core.SubmitOptions, whose admission inputs (arrival, deadline, tiering,
// pre-admission) are judged by the home shard's own SLO gate. Admission
// errors (ErrDeadline, ErrQueueFull, validation) surface exactly as
// core.Server reports them.
func (c *Cluster) SubmitAsync(ctx context.Context, job *dataflow.Job, opts ...core.SubmitOptions) (*core.Ticket, error) {
	opt, err := core.ResolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if job == nil {
		return nil, errors.New("core: nil job")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sig := Signature(job)
	ticketID := c.seq.Add(1)
	if c.ck != nil && opt.ResumeID == "" {
		// One checkpoint namespace per submission, owned by the router:
		// every shard attempt (home and failover) shares it.
		opt.ResumeID = c.ck.NewRunID(job.Name())
	}

	// Priced once, whatever the walk: every shard's topology and scheduler
	// are the same, so the estimate is too.
	var est time.Duration
	if c.cfg.TrackLoad {
		rt := c.Runtime()
		if e, _, err := sched.EstimateJob(job, rt.Topology(), rt.Scheduler()); err == nil {
			est = e.Makespan
		}
	}

	sh, l, tk, err := c.place(ctx, job, sig, ticketID, opt)
	if sh == nil {
		return nil, err
	}
	if c.cfg.TrackLoad {
		// This shard decided the admission: the routed work is its own.
		sh.estWorkNs.Add(est.Nanoseconds())
	}
	if err != nil {
		switch {
		case errors.Is(err, core.ErrDeadline):
			sh.note('S')
		case errors.Is(err, core.ErrQueueFull):
			sh.note('Q')
		default:
			sh.note('E')
		}
		return nil, err
	}
	if tk.BestEffort() {
		sh.note('B')
	} else {
		sh.note('A')
	}
	rtk := core.NewRoutedTicket(ticketID, tk.BestEffort())
	c.wg.Add(1)
	go c.watch(ctx, rtk, sh, l, tk, job, opt, sig)
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

// watch drives one routed submission to a terminal outcome, re-placing it
// along the ring whenever the life it runs in ends underneath it.
func (c *Cluster) watch(ctx context.Context, rtk *core.Ticket, sh *Shard, l *life, tk *core.Ticket, job *dataflow.Job, opt core.SubmitOptions, sig uint64) {
	defer c.wg.Done()
	// settle delivers the terminal outcome; the router owns the submission's
	// checkpoint namespace, so it is the one that forgets it.
	settle := func(rep *core.Report, err error) {
		if c.ck != nil {
			c.ck.Forget(opt.ResumeID)
		}
		rtk.Deliver(rep, err)
	}
	opt.Preadmitted = true // a re-submission's admission was settled at the home shard
	for {
		rep, err := tk.Wait(nil) // the server always delivers exactly once
		died := sh.leave(l, rtk.ID())
		if err == nil {
			sh.noteComplete(rep)
			settle(rep, nil)
			return
		}
		if ctx.Err() != nil || !died {
			// The submitter gave up, or the job genuinely failed in a life
			// that did not end: terminal either way, and not the shard's fault.
			sh.failed.Add(1)
			settle(nil, err)
			return
		}
		// The life the job ran in ended; markDown already handed its ledger
		// to the ring successor. Re-place the job along the ring. With
		// recovery on, the re-submission carries the same ResumeID, so tasks
		// the dead shard checkpointed are restored instead of re-executed.
		next, nl, ntk, serr := c.place(ctx, job, sig, rtk.ID(), opt)
		if next == nil {
			settle(nil, fmt.Errorf("shard: re-routing %s after %s died: %w", job.Name(), sh.name, serr))
			return
		}
		if serr != nil {
			next.errored.Add(1)
			settle(nil, serr)
			return
		}
		next.rerouted.Add(1)
		c.tel.Add(telemetry.LayerRuntime, "shard_rerouted", 1)
		sh, l, tk = next, nl, ntk
	}
}

// Stats reports every shard's routing/admission/fabric accounting, in
// shard order.
func (c *Cluster) Stats() []ShardStats {
	byNode := c.fabric.StatsByNode()
	out := make([]ShardStats, len(c.shards))
	for i, sh := range c.shards {
		out[i] = ShardStats{
			Name:          sh.name,
			Down:          sh.isDown(),
			Submitted:     sh.submitted.Load(),
			Admitted:      sh.admitted.Load(),
			BestEffort:    sh.bestEffort.Load(),
			RejectedSLO:   sh.rejectedSLO.Load(),
			RejectedQueue: sh.rejectedQueue.Load(),
			Errors:        sh.errored.Load(),
			Completed:     sh.completed.Load(),
			Failed:        sh.failed.Load(),
			Rerouted:      sh.rerouted.Load(),
			SLOMissed:     sh.sloMissed.Load(),
			EstWorkNs:     sh.estWorkNs.Load(),
			AdmissionSig:  sh.admissionSig(),
			Fabric:        byNode[sh.name],
		}
		if sh.pool != nil {
			out[i].Migration = sh.pool.Stats()
		}
	}
	return out
}

// Rebalance runs one region-tiering sweep on every alive shard's runtime —
// the maintenance pass a production cluster runs concurrently with serving.
// Each sweep prices its migrations inside a private clock view
// (Server.Rebalance), so serving jobs never observe its backlog. With Config.Migrate, the sweep additionally evicts regions
// that went cold past the local tiers into the ring successors' pools and
// recalls exported regions that ran hot. Returns the number of regions
// moved (local migrations + exports + recalls).
func (c *Cluster) Rebalance(now time.Duration) int {
	moved := 0
	for _, sh := range c.shards {
		if sh.isDown() {
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
	c.closed.Store(true)
	var firstErr error
	for _, sh := range c.shards {
		if err := sh.srv.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if firstErr == nil {
			firstErr = ctx.Err()
		}
	}
	return firstErr
}
