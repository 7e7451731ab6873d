// Package repro is a from-scratch Go implementation of the system envisioned
// in "Programming Fully Disaggregated Systems" (Anneser, Vogel, Gruber,
// Bandle, Giceva — HotOS '23): a declarative, memory-centric programming
// model for dataflow applications on disaggregated hardware, together with
// the runtime system the paper sketches and a deterministic simulator of the
// hardware it assumes (CXL pools, accelerators, NIC-attached memory nodes).
//
// # Programming model
//
// Applications are dataflow [Job] DAGs. Each [Task] declares what it needs —
// compute cost, device preference, output size, memory latency class,
// confidentiality, persistence — as [TaskProps] rather than imperatively
// grabbing resources (the paper's Fig. 2c). Task bodies receive a [TaskCtx]
// through which every memory operation flows: private scratch, the output
// region handed to successors, and named job-wide globals. A task with a nil
// body is "structural": the runtime synthesizes its compute charge and
// output region from the declared properties alone.
//
// Memory is organized as typed Memory Regions (Table 2 of the paper):
// [PrivateScratch], [GlobalState], [GlobalScratch], and [TransferRegion],
// each a bundle of declarative [Requirements] that the placement optimizer
// maps onto concrete simulated devices. A [RegionHandle] is an ownership
// capability; the runtime tracks lifetimes and reports leaks.
//
// # Runtime and determinism
//
// [NewRuntime] assembles the runtime system: a hardware [Topology], a
// placement policy ([NewBestFit], [NewWorstFit], [NewRandomFit]), and a
// scheduler ([HEFT], [FIFO], [RoundRobin]). Execution is simulated in
// virtual time: every compute charge and region access advances a task's
// virtual clock by a modeled cost, while real goroutines do the actual data
// movement. A simulated device keeps no queue of its own; the backlog an
// access queues behind lives only in the clock it is priced on, so one
// run's accesses never delay another's. The wavefront executor dispatches
// ready tasks onto a worker pool of any size, yet the virtual outcome — the
// [Report] — is identical for every pool size, because wall-clock effects
// never feed back into virtual time.
//
// # Serving
//
// [NewServer] wraps a Runtime in an admission-controlled serving engine:
// a bounded queue, and a worker pool that folds concurrent jobs into
// batches and overlaps whole jobs inside each batch while every job's
// Report stays what Runtime.Run alone would have produced.
// [Server.SubmitAsync] enqueues without blocking and returns a [Ticket];
// Ticket.Wait collects the job's Report later. A Server is a [Submitter],
// and so is a [Cluster]: a driver written against the interface serves
// both. See [ExampleServer_SubmitAsync].
//
// # Sharded serving and the cluster fabric
//
// [NewCluster] scales serving horizontally: N shards — each a full
// Server over its own runtime — behind a consistent-hash router on the
// one-sided [Fabric] ([NewFabric]: Read/Write/CAS verbs, leases,
// partitions, crash faults). Submissions hash by job signature onto a
// virtual-node ring; a crashed shard's in-flight jobs re-route to the
// ring successor, which adopts the dead shard's fabric leases by CAS and
// (with [RecoveryPolicy] configured) resumes from the cluster-shared
// checkpoint store. With [ClusterConfig].Migrate, maintenance sweeps
// ([Cluster.Rebalance], tuned by [RebalancePolicy]) evict regions that
// go cold past the local tier hierarchy into remote shards' memory
// pools; the next access recalls them transparently, and
// [Cluster.MigrationStats] accounts the traffic. Reports stay
// byte-identical to solo runs at any shard count, with or without
// migration or failover. See [ExampleNewCluster].
//
// # Streaming
//
// [Server.SubmitStream] serves unbounded dataflows on the same engine: a
// [StreamSpec] declares a source, a tumbling window size, and a Build
// callback stamping each window's bounded DAG; windows are admitted like
// ordinary jobs, retire in order on the returned [StreamTicket], and
// advance a virtual-time watermark. Backpressure (MaxInFlight) is
// structural and deterministic; with recovery configured, retirement
// markers make a canceled stream resumable from its checkpoint
// namespace. See [ExampleServer_SubmitStream].
//
// # Fault tolerance and recovery
//
// A [FaultInjector] deterministically kills chosen task executions so
// recovery is reproducible. Fault sites are keyed by job name and task, never
// by the submission, so a job fails at the same sites wherever it runs. Task
// outputs are checkpointed through a [Checkpointer] into a fault-tolerant
// far-memory [FaultStore] ([NewReplicatedStore], or the erasure-coded store
// in internal/fault); RecoveryPolicy.Checkpointer says which, and nil means a
// default replicated store. A [RecoveryPolicy] turns that on: passed to
// Runtime.Run it makes one run fault-tolerant, set as ServerConfig.Recovery
// it does the same for every served job — one mechanism, so the same job
// under the same injector reports the same bytes whichever door the job came
// through. A failed job is retried in
// place, on the core clocks its failed attempt left, completing
// checkpointed tasks from their snapshots instead of re-executing them;
// [Report] says how many attempts it took and how many tasks were skipped
// and replayed.
//
// RecoveryPolicy.PartialReplay is the lazy variant: a snapshot's payload
// is fetched from the store only when a re-executed task actually reads
// it — snapshots whose consumers were themselves checkpointed are never
// transferred. Virtual time is unaffected by the laziness: partial replay
// produces a Report byte-identical to full replay at any worker count,
// including for batch mates of the failing job. See [ExampleRuntime_Run]
// and DESIGN.md for the equivalence argument.
//
// # Where to look next
//
// README.md is the tour, DESIGN.md the system inventory and design notes,
// EXPERIMENTS.md the paper-artifact reproduction (makespan ablations,
// serving throughput, recovery latency). The runnable programs in
// examples/ exercise each subsystem end to end; cmd/disaggsim is the CLI
// front door and cmd/paperbench regenerates the paper's tables. This root
// package is a facade: the implementation lives in internal/ packages
// (core, dataflow, region, props, placement, sched, topology, cluster,
// fault, telemetry) and stays free to evolve behind these aliases.
package repro
