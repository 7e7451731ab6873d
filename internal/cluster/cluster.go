// Package cluster simulates the disaggregated memory fabric: memory nodes
// exporting slabs of byte-addressable storage, reached from compute nodes
// through one-sided verbs (Read/Write/CompareAndSwap) in the style of RDMA.
//
// The paper's challenge 8(3) — faults are common "in data centers having
// thousands of interconnected compute and memory devices" — is modeled with
// injectable node crashes and network partitions; internal/fault builds
// replication and erasure coding on top of these verbs and recovers through
// them. Data lives in real host memory; latency is virtual (a cost the
// caller accumulates), so tests and benches are deterministic.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/allocator"
)

// Errors returned by fabric verbs. ErrUnreachable covers both crashed nodes
// and partitions, matching what a real initiator observes (timeouts).
var (
	ErrUnreachable  = errors.New("cluster: node unreachable")
	ErrBadSlab      = errors.New("cluster: unknown slab")
	ErrOutOfRange   = errors.New("cluster: access out of slab range")
	ErrCASMismatch  = errors.New("cluster: compare-and-swap mismatch")
	ErrSlabExists   = errors.New("cluster: slab already exists")
	ErrOutOfMemory  = errors.New("cluster: memory node capacity exhausted")
	ErrUnknownNode  = errors.New("cluster: unknown node")
	ErrInvalidInput = errors.New("cluster: invalid argument")
	ErrLeaseHeld    = errors.New("cluster: slab lease held by another owner")
)

// SlabID names a slab on a specific node.
type SlabID struct {
	Node string
	Slab uint64
}

func (s SlabID) String() string { return fmt.Sprintf("%s/slab%d", s.Node, s.Slab) }

// slabFreeBytes bounds the freed slab backings a memory node keeps for reuse,
// so a burst of frees cannot pin its memory forever.
const slabFreeBytes = 8 << 20

// node is one memory node: capacity plus its exported slabs.
type node struct {
	capacity int64
	used     int64
	alive    bool
	slabs    map[uint64][]byte
	// free recycles the backings of freed slabs by size class. They are host
	// memory, not modelled capacity: used counts live slabs only.
	free     allocator.BufList
	nextSlab uint64
	verbs    uint64 // verbs executed at this node (survives crash: NIC-side)
	bytes    uint64 // payload bytes moved to/from this node
}

// NodeStats is the per-node slice of the fabric counters: verbs executed at
// a node and payload bytes moved to or from it. The counters live in the
// interconnect (NIC-side), so they survive node crashes and restarts.
type NodeStats struct {
	Verbs uint64
	Bytes uint64
}

// Fabric is the cluster interconnect plus the set of memory nodes.
type Fabric struct {
	mu         sync.Mutex
	nodes      map[string]*node
	names      []string          // every node, sorted
	alive      []string          // the reachable ones, sorted; nil after a change until asked for
	partition  map[string]bool   // nodes cut off from the initiators
	leases     map[SlabID]string // slab ownership registry, held in the fabric
	rtt        time.Duration     // one-sided verb round trip
	bwPerVerb  float64           // bytes/second for payload transfer
	verbCount  uint64
	bytesMoved uint64
}

// Config tunes fabric performance.
type Config struct {
	RTT       time.Duration // verb round-trip latency, default 3µs
	Bandwidth float64       // payload bandwidth bytes/s, default 12 GB/s
}

// NewFabric builds an empty fabric.
func NewFabric(cfg Config) *Fabric {
	if cfg.RTT <= 0 {
		cfg.RTT = 3 * time.Microsecond
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 12e9
	}
	return &Fabric{
		nodes:     make(map[string]*node),
		partition: make(map[string]bool),
		leases:    make(map[SlabID]string),
		rtt:       cfg.RTT,
		bwPerVerb: cfg.Bandwidth,
	}
}

// AddNode registers a memory node with the given capacity.
func (f *Fabric) AddNode(name string, capacity int64) error {
	if name == "" || capacity <= 0 {
		return ErrInvalidInput
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[name]; ok {
		return fmt.Errorf("%w: %s", ErrSlabExists, name)
	}
	f.nodes[name] = &node{
		capacity: capacity, alive: true, slabs: make(map[uint64][]byte),
		free: allocator.BufList{Limit: slabFreeBytes},
	}
	at, _ := slices.BinarySearch(f.names, name)
	f.names = slices.Insert(f.names, at, name)
	f.alive = nil
	return nil
}

// Nodes lists node names, alive or not, sorted for determinism.
func (f *Fabric) Nodes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.names...)
}

// AliveNodes lists reachable nodes, sorted. The list is built once per change
// of membership or reachability and shared by every caller until the next:
// callers must not modify it.
func (f *Fabric) AliveNodes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.alive == nil {
		f.alive = make([]string, 0, len(f.names))
		for _, name := range f.names {
			if f.nodes[name].alive && !f.partition[name] {
				f.alive = append(f.alive, name)
			}
		}
	}
	return f.alive
}

// reachable must be called with f.mu held.
func (f *Fabric) reachable(name string) (*node, error) {
	n, ok := f.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if !n.alive || f.partition[name] {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, name)
	}
	return n, nil
}

// count records one executed verb against the fabric totals and the target
// node's NIC-side counters. Must be called with f.mu held.
func (f *Fabric) count(n *node, payload int) {
	f.verbCount++
	n.verbs++
	if payload > 0 {
		f.bytesMoved += uint64(payload)
		n.bytes += uint64(payload)
	}
}

// AllocSlab carves size bytes out of a node and returns its slab handle and
// the virtual time the verb took. The slab reads all zeros, whether its
// backing is fresh or a freed slab's: CompareAndSwap from 0 on a new slab
// relies on it, and one tenant's bytes must not show in another's slab.
func (f *Fabric) AllocSlab(nodeName string, size int64) (SlabID, time.Duration, error) {
	if size <= 0 {
		return SlabID{}, 0, ErrInvalidInput
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.reachable(nodeName)
	if err != nil {
		return SlabID{}, f.rtt, err
	}
	if n.used+size > n.capacity {
		return SlabID{}, f.rtt, fmt.Errorf("%w: %s (%d used of %d, want %d)", ErrOutOfMemory, nodeName, n.used, n.capacity, size)
	}
	id := n.nextSlab
	n.nextSlab++
	n.slabs[id] = n.free.Get(size, true)
	n.used += size
	f.count(n, 0)
	return SlabID{Node: nodeName, Slab: id}, f.rtt, nil
}

// FreeSlab releases a slab.
func (f *Fabric) FreeSlab(id SlabID) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.reachable(id.Node)
	if err != nil {
		return f.rtt, err
	}
	buf, ok := n.slabs[id.Slab]
	if !ok {
		return f.rtt, fmt.Errorf("%w: %s", ErrBadSlab, id)
	}
	delete(n.slabs, id.Slab)
	n.used -= int64(len(buf))
	n.free.Put(buf)
	delete(f.leases, id)
	f.count(n, 0)
	return f.rtt, nil
}

// xferTime prices moving n payload bytes.
func (f *Fabric) xferTime(n int) time.Duration {
	return f.rtt + time.Duration(float64(n)/f.bwPerVerb*float64(time.Second))
}

// Read copies slab bytes [off, off+len(buf)) into buf — a one-sided RDMA
// read. Returns the virtual verb duration.
func (f *Fabric) Read(id SlabID, off int64, buf []byte) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.reachable(id.Node)
	if err != nil {
		return f.rtt, err
	}
	slab, ok := n.slabs[id.Slab]
	if !ok {
		return f.rtt, fmt.Errorf("%w: %s", ErrBadSlab, id)
	}
	if off < 0 || off+int64(len(buf)) > int64(len(slab)) {
		return f.rtt, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+int64(len(buf)), len(slab))
	}
	copy(buf, slab[off:])
	f.count(n, len(buf))
	return f.xferTime(len(buf)), nil
}

// Write copies buf into the slab at off — a one-sided RDMA write.
func (f *Fabric) Write(id SlabID, off int64, buf []byte) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.reachable(id.Node)
	if err != nil {
		return f.rtt, err
	}
	slab, ok := n.slabs[id.Slab]
	if !ok {
		return f.rtt, fmt.Errorf("%w: %s", ErrBadSlab, id)
	}
	if off < 0 || off+int64(len(buf)) > int64(len(slab)) {
		return f.rtt, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+int64(len(buf)), len(slab))
	}
	copy(slab[off:], buf)
	f.count(n, len(buf))
	return f.xferTime(len(buf)), nil
}

// CompareAndSwap atomically replaces the 8 bytes at off with swap if they
// equal compare — the fabric's synchronization primitive (used for far
// latches in Global State spillover).
func (f *Fabric) CompareAndSwap(id SlabID, off int64, compare, swap uint64) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.reachable(id.Node)
	if err != nil {
		return f.rtt, err
	}
	slab, ok := n.slabs[id.Slab]
	if !ok {
		return f.rtt, fmt.Errorf("%w: %s", ErrBadSlab, id)
	}
	if off < 0 || off+8 > int64(len(slab)) {
		return f.rtt, fmt.Errorf("%w: CAS at %d of %d", ErrOutOfRange, off, len(slab))
	}
	cur := beUint64(slab[off:])
	if cur != compare {
		// A failed compare is still an executed verb: the request traversed
		// the fabric and the node performed the comparison.
		f.count(n, 0)
		return f.rtt, fmt.Errorf("%w: have %d, want %d", ErrCASMismatch, cur, compare)
	}
	putBEUint64(slab[off:], swap)
	f.count(n, 8)
	return f.rtt, nil
}

func beUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func putBEUint64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// Crash marks a node dead, losing its volatile contents.
func (f *Fabric) Crash(nodeName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[nodeName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	n.alive = false
	n.slabs = make(map[uint64][]byte) // volatile memory is gone
	n.free.Reset()                    // and so is what was kept of freed slabs
	n.used = 0
	f.alive = nil
	return nil
}

// Restart brings a crashed node back empty.
func (f *Fabric) Restart(nodeName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[nodeName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	n.alive = true
	f.alive = nil
	return nil
}

// Partition cuts a node off without losing its memory.
func (f *Fabric) Partition(nodeName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[nodeName]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	f.partition[nodeName] = true
	f.alive = nil
	return nil
}

// Heal reconnects a partitioned node.
func (f *Fabric) Heal(nodeName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[nodeName]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	delete(f.partition, nodeName)
	f.alive = nil
	return nil
}

// NodeUsage returns (used, capacity) for a node regardless of liveness.
func (f *Fabric) NodeUsage(nodeName string) (int64, int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[nodeName]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	return n.used, n.capacity, nil
}

// Stats reports fabric-wide verb and byte counters.
func (f *Fabric) Stats() (verbs, bytes uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.verbCount, f.bytesMoved
}

// StatsByNode reports the per-node verb/byte counters for every registered
// node, alive or not.
func (f *Fabric) StatsByNode() map[string]NodeStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]NodeStats, len(f.nodes))
	for name, n := range f.nodes {
		out[name] = NodeStats{Verbs: n.verbs, Bytes: n.bytes}
	}
	return out
}

// NodeStats reports the verb/byte counters of one node.
func (f *Fabric) NodeStats(nodeName string) (NodeStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[nodeName]
	if !ok {
		return NodeStats{}, fmt.Errorf("%w: %s", ErrUnknownNode, nodeName)
	}
	return NodeStats{Verbs: n.verbs, Bytes: n.bytes}, nil
}

// Lease claims ownership of a slab for an initiator. The registry lives in
// the fabric control plane (MIND's "memory-management logic belongs in the
// network"), so ownership metadata survives the death of the slab's home
// node. Claiming an unleased slab or re-claiming one's own lease succeeds;
// claiming another owner's lease fails. Costs one round trip.
func (f *Fabric) Lease(id SlabID, owner string) (time.Duration, error) {
	if owner == "" {
		return 0, ErrInvalidInput
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[id.Node]; !ok {
		return f.rtt, fmt.Errorf("%w: %s", ErrUnknownNode, id.Node)
	}
	if cur, ok := f.leases[id]; ok && cur != owner {
		return f.rtt, fmt.Errorf("%w: %s leased by %s", ErrLeaseHeld, id, cur)
	}
	f.leases[id] = owner
	f.verbCount++
	return f.rtt, nil
}

// Owner reports the current lease holder of a slab, if any.
func (f *Fabric) Owner(id SlabID) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	owner, ok := f.leases[id]
	return owner, ok
}

// LeasesOf lists the slabs currently leased by an owner, sorted for
// determinism. The registry is fabric-resident, so a survivor can enumerate
// a dead shard's holdings to adopt them.
func (f *Fabric) LeasesOf(owner string) []SlabID {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []SlabID
	for id, o := range f.leases {
		if o == owner {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Slab < out[j].Slab
	})
	return out
}

// Handoff transfers a slab lease from one owner to another — the ownership
// half of a cross-shard region transfer. It is a compare-and-swap on the
// control plane: it fails unless `from` currently holds the lease. Because
// the registry is fabric-resident, a handoff succeeds even when the slab's
// home node is crashed or partitioned (a survivor adopting a dead shard's
// slabs is exactly the failover case). Costs one round trip.
func (f *Fabric) Handoff(id SlabID, from, to string) (time.Duration, error) {
	if from == "" || to == "" {
		return 0, ErrInvalidInput
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur, ok := f.leases[id]
	if !ok || cur != from {
		return f.rtt, fmt.Errorf("%w: %s held by %q, not %q", ErrLeaseHeld, id, cur, from)
	}
	f.leases[id] = to
	f.verbCount++
	return f.rtt, nil
}
