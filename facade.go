package repro

// This file is the module's public facade: downstream users import the
// root package and get the programming model without reaching into
// internal/ paths. The aliases are the stable API surface; the internal
// packages remain free to evolve behind them.

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Programming model (§2.1): jobs, tasks, declarative properties.
type (
	// Job is a dataflow application: a DAG of tasks.
	Job = dataflow.Job
	// Task is one node of the DAG.
	Task = dataflow.Task
	// TaskProps are the declarative task properties of Fig. 2c.
	TaskProps = dataflow.Props
	// TaskCtx is the execution context passed to task bodies.
	TaskCtx = dataflow.Ctx
	// TaskFn is a task body.
	TaskFn = dataflow.Fn
	// DevicePref selects the compute-device kind a task wants.
	DevicePref = dataflow.DevicePref
)

// Device preferences.
const (
	AnyDevice = dataflow.AnyDevice
	OnCPU     = dataflow.OnCPU
	OnGPU     = dataflow.OnGPU
	OnTPU     = dataflow.OnTPU
	OnFPGA    = dataflow.OnFPGA
)

// NewJob creates an empty dataflow job.
func NewJob(name string) *Job { return dataflow.NewJob(name) }

// Memory model (§2.2): requirements, region classes, handles.
type (
	// Requirements is a declarative memory request.
	Requirements = props.Requirements
	// RegionClass names the predefined Memory Regions of Table 2.
	RegionClass = props.RegionClass
	// RegionHandle is an owner's capability to a Memory Region.
	RegionHandle = region.Handle
	// LatencyClass buckets access latency for declarative requests.
	LatencyClass = props.LatencyClass
)

// Region classes (Table 2).
const (
	PrivateScratch = props.PrivateScratch
	GlobalState    = props.GlobalState
	GlobalScratch  = props.GlobalScratch
	TransferRegion = props.Transfer
)

// Latency classes.
const (
	LatencyAny    = props.LatencyAny
	LatencyLow    = props.LatencyLow
	LatencyMedium = props.LatencyMedium
	LatencyHigh   = props.LatencyHigh
	LatencyBulk   = props.LatencyBulk
)

// Runtime system (§2.3).
type (
	// Runtime is the RTS: placement, scheduling, ownership, lifetimes.
	Runtime = core.Runtime
	// ExecConfig assembles a Runtime (NewRuntime) and is embedded in
	// ServerConfig as its defaults; zero values get defaults.
	ExecConfig = core.ExecConfig
	// Report is the outcome of one job run.
	Report = core.Report
	// TaskReport describes one executed task of a Report (Report.Task).
	TaskReport = core.TaskReport
	// RegionPlacement is the device the RTS chose for one labelled region of
	// a task (TaskReport.Regions, TaskReport.Region).
	RegionPlacement = core.RegionPlacement
	// DeviceBytes is one device's high-water allocation over a run
	// (Report.PeakDeviceBytes).
	DeviceBytes = core.DeviceBytes
	// TaskOutput is the device holding a sink task's retained output
	// (Report.FinalOutputs).
	TaskOutput = core.TaskOutput
	// MultiReport is the outcome of a concurrent job batch.
	MultiReport = core.MultiReport
	// Checkpointer persists task outputs for recovery
	// (RecoveryPolicy.Checkpointer): share one between stacks that must be
	// able to restore each other's snapshots.
	Checkpointer = core.Checkpointer
	// Server is the concurrent job-submission engine: bounded admission
	// queue, worker pool running jobs in batches in which every job is
	// priced from an idle machine, per-job cancellation, graceful drain.
	Server = core.Server
	// ServerConfig assembles a Server; zero values get serving defaults.
	ServerConfig = core.ServerConfig
	// Ticket is an asynchronous submission's handle: Done/Wait/ID
	// (Server.SubmitAsync).
	Ticket = core.Ticket
	// SubmitOptions is the unified per-submission surface accepted by
	// Submit, SubmitAsync, and SubmitStream (at most one per call):
	// admission inputs, resume, pre-admission, shard labeling.
	SubmitOptions = core.SubmitOptions
	// Submitter is the submission side of a serving stack; a Server is one
	// and a Cluster is one, so a driver written against it serves both.
	Submitter = core.Submitter
	// SLOPolicy makes admission deadline-aware (ServerConfig.SLO).
	SLOPolicy = core.SLOPolicy
	// AutoScalePolicy grows/shrinks the live worker pool against observed
	// queue-wait p99 (ServerConfig.AutoScale).
	AutoScalePolicy = core.AutoScalePolicy
	// RecoveryPolicy makes execution fault-tolerant: task outputs
	// checkpointed where its Checkpointer says, bounded retries that start on
	// the core clocks the failed attempt left. Pass one to Runtime.Run
	// for a single job, or set ServerConfig.Recovery for every served job —
	// the same job and fault report the same either way. Set PartialReplay to
	// restore checkpoint payloads lazily on retries; recovered reports stay
	// byte-identical to full replay.
	RecoveryPolicy = core.RecoveryPolicy
	// Topology is the simulated hardware graph.
	Topology = topology.Topology
	// Telemetry is the cross-layer metrics registry.
	Telemetry = telemetry.Registry
)

// NewRuntime builds an RTS instance. A zero config gets the reference
// single-node testbed, the best-fit placement optimizer, and the HEFT
// scheduler.
func NewRuntime(cfg ExecConfig) (*Runtime, error) { return core.New(cfg) }

// NewCheckpointer wraps a fault-tolerant store (RecoveryPolicy.Checkpointer).
var NewCheckpointer = core.NewCheckpointer

// Fault tolerance (challenge 8(3)): durable far-memory stores for
// checkpoints, plus the deterministic fault-injection hook.
type (
	// FaultStore is a fault-tolerant far-memory object store (replication
	// or Carbink-style erasure coding).
	FaultStore = fault.Store
	// FaultInjector deterministically kills chosen task executions so
	// recovery can be exercised reproducibly (ExecConfig.Inject).
	FaultInjector = fault.Injector
	// Fabric is the simulated far-memory cluster fault stores write to.
	Fabric = cluster.Fabric
	// FabricConfig tunes the simulated fabric.
	FabricConfig = cluster.Config
	// ErasureConfig tunes the Carbink-style erasure-coded store.
	ErasureConfig = fault.ErasureConfig
)

var (
	// NewFabric builds a far-memory cluster for fault stores.
	NewFabric = cluster.NewFabric
	// NewReplicatedStore keeps k full copies of each object.
	NewReplicatedStore = fault.NewReplicatedStore
	// NewErasureStore stripes objects RS(data+parity) across fabric nodes.
	NewErasureStore = fault.NewErasureStore
	// NewFaultInjector fails the first `kills` executions of a seeded
	// `rate` fraction of task sites.
	NewFaultInjector = fault.NewInjector
	// ErrInjectedFault marks a deterministically injected task failure.
	ErrInjectedFault = fault.ErrInjected
)

// NewServer builds and starts a concurrent job-submission engine.
var NewServer = core.NewServer

// Serving-layer errors.
var (
	// ErrQueueFull reports a rejected submission (non-blocking admission).
	ErrQueueFull = core.ErrQueueFull
	// ErrServerClosed reports a submission after Close.
	ErrServerClosed = core.ErrServerClosed
	// ErrDeadline reports an SLO rejection: predicted completion exceeds
	// the submission's deadline and the policy does not down-tier.
	ErrDeadline = core.ErrDeadline
	// ErrStreamCanceled is the terminal error of a canceled stream
	// (StreamTicket.Cancel or its submission context ending).
	ErrStreamCanceled = core.ErrStreamCanceled
)

// Streaming dataflows (Server.SubmitStream): an unbounded source cut into
// bounded windows, each window an ordinary job stamped from the spec's
// template and executed on the serving pool.
type (
	// StreamSpec declares a streaming dataflow: source, window size, the
	// per-window task graph, and the in-flight bound.
	StreamSpec = stream.Spec
	// StreamEvent is one element of a stream: a partition key plus payload.
	StreamEvent = stream.Event
	// StreamSource produces a stream's events in order.
	StreamSource = stream.Source
	// StreamSourceFunc adapts a function to the StreamSource interface.
	StreamSourceFunc = stream.SourceFunc
	// StreamWindow is one bounded slice of the stream, handed to the
	// spec's Build callback.
	StreamWindow = stream.Window
	// StreamTicket is a live streaming submission: per-window reports,
	// watermark, Cancel (simulated crash), Drain.
	StreamTicket = core.StreamTicket
	// JobTemplate stamps numbered job instances from a shared builder —
	// what a StreamSpec's windows are instantiated from. It builds each
	// instance along the previous one's checked graph, so use it by pointer.
	JobTemplate = dataflow.Template
)

// NewSliceSource replays a fixed event slice — the deterministic test and
// resume source. Hand each stream run a fresh source.
var NewSliceSource = stream.NewSliceSource

// Sharded serving (multi-server routing front end).
type (
	// Cluster is the sharded serving front end: submissions routed by
	// consistent hash of the job signature, with failover replay across
	// shards when recovery is configured.
	Cluster = shard.Cluster
	// ClusterConfig assembles a Cluster; zero fields get serving defaults.
	ClusterConfig = shard.Config
	// ClusterShard is one serving shard of a Cluster.
	ClusterShard = shard.Shard
	// ShardStats is one shard's routing, admission, and fabric accounting.
	ShardStats = shard.ShardStats
	// MigrationStats counts cross-shard region traffic: regions exported to
	// remote pools, recalled on access, bytes moved each way, fabric verb
	// time priced into maintenance sweeps, and regions currently remote.
	MigrationStats = cluster.RegionPoolStats
	// RebalancePolicy tunes the maintenance sweep: the eviction watermark
	// past which cold regions spill to remote shards' pools
	// (ClusterConfig.Rebalance; zero value = local-only sweeps). Promotion
	// and demotion across the local tier hierarchy run at fixed thresholds.
	RebalancePolicy = region.RebalancePolicy
)

// Sharded-serving constructors and errors.
var (
	// NewCluster builds the fabric, the shards, and the routing ring; the
	// cluster is serving when it returns.
	NewCluster = shard.NewCluster
	// ErrNoShards means no alive shard remains to route or re-route to.
	ErrNoShards = shard.ErrNoShards
	// ErrClusterClosed reports a cluster submission after Close started.
	ErrClusterClosed = shard.ErrClosed
)

// Testbeds.
var (
	// BuildSingleNode constructs the reference single-node testbed.
	BuildSingleNode = topology.BuildSingleNode
	// BuildRack wires a multi-node rack with a shared fabric.
	BuildRack = topology.BuildRack
	// DefaultSingleNode is the fully populated single-node configuration.
	DefaultSingleNode = topology.DefaultSingleNode
)

// Placement policies.
var (
	// NewBestFit is the cost-model placement optimizer.
	NewBestFit = placement.NewBestFit
	// NewWorstFit is the adversarial baseline.
	NewWorstFit = placement.NewWorst
	// NewRandomFit places uniformly among matching devices.
	NewRandomFit = placement.NewRandom
)

// Schedulers.
type (
	// HEFT is the heterogeneous-earliest-finish-time scheduler.
	HEFT = sched.HEFT
	// FIFO is the first-idle-device baseline.
	FIFO = sched.FIFO
	// RoundRobin cycles eligible devices.
	RoundRobin = sched.RoundRobin
)

// NewTelemetry creates a metrics registry to pass into ExecConfig.
var NewTelemetry = telemetry.NewRegistry
