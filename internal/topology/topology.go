// Package topology models the hardware landscape of a disaggregated data
// center: compute devices (CPUs, GPUs, TPUs, FPGAs), the simulated memory
// devices of internal/memsim, and the interconnects between them (on-chip
// fabrics, memory buses, UPI cross-socket links, PCIe/CXL, SATA, and the
// network fabric reaching memory nodes).
//
// The central question the paper's §2.2 asks — "which physical memory device
// best serves this request *from this compute device*?" — is answered here:
// Route resolves, once per (compute device, memory device) pair, the
// cheapest interconnect path and everything about the pair that is fixed by
// the graph; Path, EffectiveCaps and Addressable read it, and a virtual clock
// (Epoch, TaskView) prices accesses over it. The same memory device therefore presents different capabilities to different
// compute devices (Figure 3).
package topology

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
)

// ComputeKind enumerates the compute device types of Figure 1.
type ComputeKind uint8

const (
	CPU ComputeKind = iota
	GPU
	TPU
	FPGA
)

// String returns the kind name.
func (k ComputeKind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case TPU:
		return "TPU"
	case FPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("ComputeKind(%d)", uint8(k))
	}
}

// ComputeDevice is a processing element tasks can be scheduled on.
type ComputeDevice struct {
	ID    string
	Kind  ComputeKind
	Node  string  // hosting node (chassis); "" for none
	Gops  float64 // billions of scalar ops per second, the scheduler's speed model
	Cores int     // parallel task slots

	idx int // dense index, assigned by AddCompute: the device's slot in a ComputeSet
}

// Index returns the device's dense index in its topology: its position in
// insertion order, and its slot in every table a ComputeSet describes.
func (c *ComputeDevice) Index() int { return c.idx }

// LinkKind tags interconnect technologies, mostly for reporting.
type LinkKind uint8

const (
	LinkOnChip LinkKind = iota
	LinkMemBus          // DDR memory bus
	LinkUPI             // cross-socket coherent link
	LinkPCIe            // PCIe or CXL
	LinkSATA
	LinkNIC // network fabric hop
)

// String returns the link technology name.
func (k LinkKind) String() string {
	switch k {
	case LinkOnChip:
		return "on-chip"
	case LinkMemBus:
		return "membus"
	case LinkUPI:
		return "UPI"
	case LinkPCIe:
		return "PCIe/CXL"
	case LinkSATA:
		return "SATA"
	case LinkNIC:
		return "NIC"
	default:
		return fmt.Sprintf("LinkKind(%d)", uint8(k))
	}
}

// Link is a bidirectional edge between two endpoints with its own latency
// and bandwidth. Endpoints are string IDs: compute devices, memory devices,
// or internal switches ("node0/pcie", "fabric").
type Link struct {
	A, B      string
	Kind      LinkKind
	Latency   time.Duration
	Bandwidth float64 // bytes/second
	Coherent  bool    // link preserves hardware cache coherence (memory bus, UPI, CXL)
}

// PathInfo is the result of routing from a compute device to a memory device.
type PathInfo struct {
	Hops      []Link
	Latency   time.Duration // sum of link latencies (excludes the device's own latency)
	Bandwidth float64       // min of link bandwidths (math.Inf(1) for the empty path)
	Coherent  bool          // every hop preserves coherence
}

// Route is everything about one (source endpoint, destination endpoint) pair
// that the graph fixes: the cheapest path and, when the destination is a
// memory device, the device itself and the pair's derived access properties.
// Routes are resolved lazily by Topology.Route and shared: treat one as
// read-only. A holder that keeps a *Route across calls (region.Handle does)
// must drop it once Valid reports false.
type Route struct {
	Mem    *memsim.Device // the memory device; nil when the destination is not one, or is unreachable
	Idx    int            // Mem's dense index: its slot in Epoch and TaskView queue state
	Path   PathInfo
	Remote bool          // the path crosses the network fabric
	Sync   bool          // synchronous loads/stores are sensible: Mem.Sync and not Remote
	Lat    time.Duration // Mem.Latency + Path.Latency: one traversal to the device

	reachable bool
	stale     atomic.Bool // set when Connect or AddMemory changed the graph under it
}

// Valid reports whether the graph is still the one the route was resolved
// on. Connect and AddMemory invalidate every route resolved before them.
func (rt *Route) Valid() bool { return !rt.stale.Load() }

// Topology is the full hardware graph.
type Topology struct {
	computes map[string]*ComputeDevice
	memIdx   map[string]int // memory device ID → index into mems
	adj      map[string][]Link
	// computeOrder and mems preserve insertion order for deterministic
	// iteration; a memory device's position in mems is its dense index.
	computeOrder []string
	mems         []*memsim.Device
	// routes memoizes Route per (from, to) pair — the one routing cache;
	// Route sits on every memory access's path. Created by the first
	// resolution: building a topology precomputes nothing.
	routeMu sync.RWMutex
	routes  map[[2]string]*Route
	// version counts graph changes (AddCompute, AddMemory, Connect): what a
	// holder of state derived from the graph compares to know it is current.
	version atomic.Uint64
	// cset is the compute side of the graph resolved at one version; see
	// ComputeSet.
	cset atomic.Pointer[ComputeSet]
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		computes: make(map[string]*ComputeDevice),
		memIdx:   make(map[string]int),
		adj:      make(map[string][]Link),
	}
}

// AddCompute registers a compute device. IDs must be unique across the graph.
func (t *Topology) AddCompute(c *ComputeDevice) error {
	if c == nil || c.ID == "" {
		return fmt.Errorf("topology: compute device must have an id")
	}
	if t.has(c.ID) {
		return fmt.Errorf("topology: duplicate id %q", c.ID)
	}
	if c.Gops <= 0 {
		return fmt.Errorf("topology: %s: Gops must be positive", c.ID)
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	c.idx = len(t.computeOrder)
	t.computes[c.ID] = c
	t.computeOrder = append(t.computeOrder, c.ID)
	t.version.Add(1) // no route changes, but EffectiveCaps now answers for c.ID
	return nil
}

// Version identifies the current graph: it changes whenever AddCompute,
// AddMemory or Connect does. State derived from the graph (placement
// candidates) records the version it was resolved at and is dropped once
// Version differs.
func (t *Topology) Version() uint64 { return t.version.Load() }

// AddMemory registers a memory device built by memsim.
func (t *Topology) AddMemory(d *memsim.Device) error {
	if d == nil {
		return fmt.Errorf("topology: nil memory device")
	}
	if t.has(d.ID) {
		return fmt.Errorf("topology: duplicate id %q", d.ID)
	}
	t.memIdx[d.ID] = len(t.mems)
	t.mems = append(t.mems, d)
	t.invalidateRoutes() // a route ending at this ID resolved it as a switch
	return nil
}

func (t *Topology) has(id string) bool {
	if _, ok := t.computes[id]; ok {
		return true
	}
	if _, ok := t.memIdx[id]; ok {
		return true
	}
	return false
}

// invalidateRoutes advances the graph version, drops every resolved route
// and marks it stale for the holders that cached it. An empty cache is left as it is, so building a
// graph link by link allocates nothing here.
func (t *Topology) invalidateRoutes() {
	t.version.Add(1)
	t.routeMu.Lock()
	for _, rt := range t.routes {
		rt.stale.Store(true)
	}
	clear(t.routes)
	t.routeMu.Unlock()
}

// Connect adds a bidirectional link. Unknown endpoints are allowed — they
// become switches (pure routing vertices).
func (t *Topology) Connect(l Link) error {
	if l.A == "" || l.B == "" || l.A == l.B {
		return fmt.Errorf("topology: invalid link %q-%q", l.A, l.B)
	}
	if l.Latency < 0 || l.Bandwidth <= 0 {
		return fmt.Errorf("topology: link %s-%s needs latency ≥ 0 and bandwidth > 0", l.A, l.B)
	}
	t.adj[l.A] = append(t.adj[l.A], l)
	rev := l
	rev.A, rev.B = l.B, l.A
	t.adj[l.B] = append(t.adj[l.B], rev)
	t.invalidateRoutes()
	return nil
}

// Compute returns a registered compute device.
func (t *Topology) Compute(id string) (*ComputeDevice, bool) {
	c, ok := t.computes[id]
	return c, ok
}

// Memory returns a registered memory device.
func (t *Topology) Memory(id string) (*memsim.Device, bool) {
	i, ok := t.memIdx[id]
	if !ok {
		return nil, false
	}
	return t.mems[i], true
}

// ComputeSet is the compute side of the graph resolved for one Version():
// the devices by dense index, the per-kind lists, and where each device's
// cores sit in one flat per-core table — what planning and execution index
// their per-device state by instead of the device ID. It is resolved on
// first use, shared and immutable; a graph change drops it.
type ComputeSet struct {
	// Devices lists the compute devices in insertion order; a device's
	// position is its Index().
	Devices []*ComputeDevice

	topo    *Topology
	version uint64
	kinds   [FPGA + 1][]*ComputeDevice
	coreOff []int32 // len(Devices)+1: device i's cores are [coreOff[i], coreOff[i+1])
	// links is the Devices×Devices matrix of compute-to-compute routes, each
	// resolved (and memoized in the topology's routing cache) on first use.
	links []atomic.Pointer[Route]
}

// ComputeSet returns the resolved compute side of the current graph.
func (t *Topology) ComputeSet() *ComputeSet {
	v := t.Version()
	if cs := t.cset.Load(); cs != nil && cs.version == v {
		return cs
	}
	n := len(t.computeOrder)
	cs := &ComputeSet{
		Devices: make([]*ComputeDevice, n), topo: t, version: v,
		coreOff: make([]int32, n+1), links: make([]atomic.Pointer[Route], n*n),
	}
	for i, id := range t.computeOrder {
		c := t.computes[id]
		cs.Devices[i] = c
		cs.coreOff[i+1] = cs.coreOff[i] + int32(c.Cores)
		if int(c.Kind) < len(cs.kinds) {
			cs.kinds[c.Kind] = append(cs.kinds[c.Kind], c)
		}
	}
	t.cset.Store(cs)
	return cs
}

// ByKind lists the devices of one kind, in insertion order. The list is
// shared: read-only.
func (cs *ComputeSet) ByKind(k ComputeKind) []*ComputeDevice {
	if int(k) >= len(cs.kinds) {
		return nil
	}
	return cs.kinds[k]
}

// NumCores is the length of the flat per-core table: every device's cores.
func (cs *ComputeSet) NumCores() int { return int(cs.coreOff[len(cs.Devices)]) }

// Cores returns device dev's window of a flat per-core table.
func (cs *ComputeSet) Cores(table []time.Duration, dev int) []time.Duration {
	return table[cs.coreOff[dev]:cs.coreOff[dev+1]]
}

// Link returns the latency and bandwidth of the cheapest path between two
// compute devices — what moving a task's output from one to the other is
// priced with; ok is false when no path joins them.
func (cs *ComputeSet) Link(from, to int) (lat time.Duration, bandwidth float64, ok bool) {
	cell := &cs.links[from*len(cs.Devices)+to]
	rt := cell.Load()
	if rt == nil {
		rt = cs.topo.resolve(cs.Devices[from].ID, cs.Devices[to].ID)
		cell.Store(rt)
	}
	return rt.Path.Latency, rt.Path.Bandwidth, rt.reachable
}

// Memories returns all memory devices in insertion order. The slice is the
// caller's own copy; loops that only read use MemoryDevices.
func (t *Topology) Memories() []*memsim.Device {
	return append([]*memsim.Device(nil), t.mems...)
}

// MemoryDevices lists the memory devices in insertion order; a device's
// position is its dense index. The list is shared: read-only.
func (t *Topology) MemoryDevices() []*memsim.Device { return t.mems }

// Path routes from one endpoint to another, minimizing latency (ties broken
// by hop count, then lexicographically for determinism). It returns false if
// no route exists.
func (t *Topology) Path(from, to string) (PathInfo, bool) {
	if from == to {
		return PathInfo{Bandwidth: math.Inf(1), Coherent: true}, true
	}
	rt := t.resolve(from, to)
	return rt.Path, rt.reachable
}

// Route returns the resolved route from a compute device to a memory
// device, or false when memID is not a memory device or no path reaches it.
// Routes are resolved once per pair and memoized until Connect or AddMemory
// changes the graph.
func (t *Topology) Route(computeID, memID string) (*Route, bool) {
	rt := t.resolve(computeID, memID)
	if rt.Mem == nil { // not a memory device, or unreachable
		return nil, false
	}
	return rt, true
}

// RouteError says why Route(computeID, memID) does not resolve.
func (t *Topology) RouteError(computeID, memID string) error {
	if _, ok := t.memIdx[memID]; !ok {
		return fmt.Errorf("topology: unknown memory device %q", memID)
	}
	return fmt.Errorf("topology: no path %s→%s", computeID, memID)
}

// resolve returns the memoized route for a pair, searching on first use.
func (t *Topology) resolve(from, to string) *Route {
	key := [2]string{from, to}
	t.routeMu.RLock()
	rt, hit := t.routes[key]
	t.routeMu.RUnlock()
	if hit {
		return rt
	}
	rt = &Route{Idx: -1}
	rt.Path, rt.reachable = t.route(from, to)
	if i, ok := t.memIdx[to]; ok && rt.reachable {
		mem := t.mems[i]
		rt.Mem, rt.Idx = mem, i
		for _, l := range rt.Path.Hops {
			if l.Kind == LinkNIC {
				rt.Remote = true
				break
			}
		}
		rt.Sync = mem.Sync && !rt.Remote
		rt.Lat = mem.Latency + rt.Path.Latency
	}
	t.routeMu.Lock()
	if prior, raced := t.routes[key]; raced {
		rt = prior // one route object per pair, whoever resolved it first
	} else {
		if t.routes == nil {
			t.routes = make(map[[2]string]*Route)
		}
		t.routes[key] = rt
	}
	t.routeMu.Unlock()
	return rt
}

// route is the uncached Dijkstra search behind resolve.
func (t *Topology) route(from, to string) (PathInfo, bool) {
	type state struct {
		lat  time.Duration
		hops int
	}
	dist := map[string]state{from: {}}
	prev := map[string]Link{}
	visited := map[string]bool{}
	for {
		// Extract the unvisited vertex with minimal (lat, hops, id).
		cur, ok := "", false
		var best state
		keys := make([]string, 0, len(dist))
		for v := range dist {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		for _, v := range keys {
			if visited[v] {
				continue
			}
			s := dist[v]
			if !ok || s.lat < best.lat || (s.lat == best.lat && s.hops < best.hops) {
				cur, best, ok = v, s, true
			}
		}
		if !ok {
			return PathInfo{}, false
		}
		if cur == to {
			break
		}
		visited[cur] = true
		for _, l := range t.adj[cur] {
			nd := state{best.lat + l.Latency, best.hops + 1}
			if old, seen := dist[l.B]; !seen || nd.lat < old.lat || (nd.lat == old.lat && nd.hops < old.hops) {
				dist[l.B] = nd
				prev[l.B] = l
			}
		}
	}
	// Reconstruct.
	var hops []Link
	for v := to; v != from; {
		l := prev[v]
		hops = append(hops, l)
		v = l.A
	}
	// Reverse into from→to order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	info := PathInfo{Hops: hops, Bandwidth: math.Inf(1), Coherent: true}
	for _, l := range hops {
		info.Latency += l.Latency
		if l.Bandwidth < info.Bandwidth {
			info.Bandwidth = l.Bandwidth
		}
		if !l.Coherent {
			info.Coherent = false
		}
	}
	return info, true
}

// EffectiveCaps folds a path's cost into a memory device's raw spec,
// producing the capabilities the device offers *as seen from* the given
// compute device. This is the paper's Figure 3 in code: DRAM looks fast from
// the local CPU and slow from a GPU across PCIe; GDDR is the reverse.
// Everything but FreeCapacity is fixed by the route.
func (t *Topology) EffectiveCaps(computeID, memID string) (props.Capabilities, bool) {
	if _, ok := t.computes[computeID]; !ok {
		return props.Capabilities{}, false
	}
	rt, ok := t.Route(computeID, memID)
	if !ok {
		return props.Capabilities{}, false
	}
	mem := rt.Mem
	bw := mem.Bandwidth
	if rt.Path.Bandwidth < bw {
		bw = rt.Path.Bandwidth
	}
	return props.Capabilities{
		Latency:         rt.Lat,
		Bandwidth:       bw,
		Granularity:     mem.Granularity,
		ByteAddressable: mem.ByteAddressable(),
		Coherent:        mem.Coherent && rt.Path.Coherent,
		Sync:            rt.Sync,
		Persistent:      mem.Persistent,
		Remote:          rt.Remote,
		FreeCapacity:    mem.Free(),
	}, true
}

// Addressable reports whether the compute device can address the memory
// device at all (a route exists). Block devices remain addressable — the
// runtime wraps them behind async interfaces.
func (t *Topology) Addressable(computeID, memID string) bool {
	_, ok := t.Path(computeID, memID)
	return ok
}
