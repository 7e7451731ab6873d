// Package region implements the paper's central abstraction: typed Memory
// Regions with ownership (§2.2). A region is a logical view of physical
// memory, declared and identified by its *properties* rather than its
// location; the Manager maps each request onto a simulated physical device
// that satisfies those properties relative to the requesting compute device,
// carves space out of the device with a buddy allocator, and tracks
// ownership until the last owner releases the region.
//
// Ownership follows §2.2(2): a region is either exclusively owned by one
// task — transferable to the next task like C++ move semantics (Fig. 4) —
// or shared among concurrently running tasks, which forces coherent
// placement and pays directory-protocol costs on every access.
//
// Confidential regions placed off-node are transparently encrypted at rest
// (AES-CTR): the property travels with the region, not with the code.
package region

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/allocator"
	"repro/internal/coherence"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Errors reported by the region layer.
var (
	ErrStaleHandle   = errors.New("region: stale handle (ownership was moved)")
	ErrFreed         = errors.New("region: region already freed")
	ErrNotOwner      = errors.New("region: caller does not own this region")
	ErrNotShareable  = errors.New("region: region class cannot be shared")
	ErrNotMovable    = errors.New("region: region class cannot be transferred")
	ErrExclusive     = errors.New("region: exclusively owned by another task")
	ErrOutOfBounds   = errors.New("region: access out of bounds")
	ErrNoPlacement   = errors.New("region: no device satisfies the requirements")
	ErrSyncFarAccess = errors.New("region: synchronous access to async-only device")
)

// Owner identifies a task (or job, or application) holding a region.
type Owner string

// ID is a region identifier, unique per Manager.
type ID uint64

// Placer decides which memory device serves a request. The placement
// package provides cost-model implementations; FirstFit below is the naive
// baseline.
type Placer interface {
	// Place returns the device ID to allocate on.
	Place(req props.Requirements, computeID string) (string, error)
	// Name labels the policy in reports.
	Name() string
}

// Spec describes an allocation request — the declarative ask of §2.1.
type Spec struct {
	Name    string            // human label ("hashtable", "bloomfilter")
	Class   props.RegionClass // Table 2 class; Custom uses Req verbatim
	Size    int64             // bytes
	Req     props.Requirements
	Owner   Owner  // initial owner
	Compute string // compute device the owner runs on
	// Device, when non-empty, pins the placement to a specific memory
	// device (bypassing the placer). Used by the runtime when a shared
	// region was already co-placed for several compute devices; the pinned
	// device must still satisfy the merged requirements.
	Device string
	// Now is the requester's virtual time at allocation. Placers that
	// implement PlaceAt use it to see device queue backlog — the
	// "resource utilization" signal §3's challenges 1-3 ask the RTS to
	// track. Zero is a valid time (job start).
	Now time.Duration
	// Clock, when non-nil, is the virtual-time view all of this region's
	// accesses are queued against — an *topology.Epoch (shared FIFO view)
	// or a *topology.TaskView (one wavefront task's causal view). Handles
	// derived from the allocation (shares, transfers) inherit it, so one
	// view's backlog never leaks into another — the isolation concurrent
	// job submission requires. Nil falls back to the device-global queues
	// (legacy sequential mode).
	Clock topology.VClock
}

// PlacerAt is the optional contention-aware extension of Placer: placers
// implementing it receive the requester's virtual time and can penalize
// devices whose service queues are backed up.
type PlacerAt interface {
	PlaceAt(req props.Requirements, computeID string, now time.Duration) (string, error)
}

// PlacerEpoch is the clock-aware extension of Placer: the backlog signal is
// read from the requester's own virtual-time view (epoch or task view)
// instead of the device-global queues, so concurrent runs steer by their
// own contention.
type PlacerEpoch interface {
	PlaceEpoch(req props.Requirements, computeID string, now time.Duration, clk topology.VClock) (string, error)
}

// Region is the manager-internal state of one memory region. Every handle to
// it holds the *Region itself, so an access finds it without the manager.
type Region struct {
	// Fixed at Alloc.
	m         *Manager
	id        ID
	name      string
	class     props.RegionClass
	req       props.Requirements
	size      int64
	blockSize int64

	// mu is the region's one lock: it guards every field below, which is
	// everything an access reads, and an access takes no other. A field below
	// is written only with mu held; every writer but the access path (which
	// writes heat alone) holds Manager.mu as well, so a holder of Manager.mu
	// may read any of them but heat without mu. Lock order: Manager.mu before
	// mu, never the reverse — an access that needs the manager (recall of an
	// exported region) lets go of mu first. Only a holder of Manager.mu ever
	// holds two regions' locks at once.
	mu     sync.Mutex
	device *memsim.Device
	offset int64  // offset within the device's buddy arena
	data   []byte // real host backing; ciphertext when sealed
	gen    uint64 // bumped on ownership transfer to invalidate handles
	owners ownerSet
	// ownVer counts the times an owner was taken out of owners. A handle
	// stamps the value at which it last found its owner there, so the probe
	// runs once per handle per removal instead of once per access.
	ownVer uint64
	heat   uint64 // accesses since the last rebalance epoch (tiering)
	// sharers is the happens-before sharer set: the deterministic task
	// ranks that were ever granted ownership through the rank-aware share
	// path (ShareRanked — the runtime's output fan-out). An access through
	// a ranked handle fences only against the *lower* ranks in this set
	// instead of every lower rank of the run, so a region whose sharing
	// phase has passed stops paying the global barrier. Kept ascending;
	// complete before any sharing consumer can access, because the runtime
	// grants all fan-out shares at producer completion — which
	// happens-before every consumer launch.
	sharers []int
	token   string // names the remote placement while exported
	// The flags sit together so they pack into one word: a region is
	// allocated per task output, and its size class is counted per job.
	sealed bool // encrypted at rest
	freed  bool
	// everShared latches once the region has had more than one owner:
	// coherence pricing keys off it instead of the instantaneous owner
	// count, so the cost of an access does not depend on whether a sibling
	// task has released its share yet — a wall-clock race under parallel
	// execution. (Realistic too: the directory still tracks the lines until
	// they are dropped.)
	everShared bool
	// openShared marks sharing through the rank-blind path (Handle.Share:
	// job globals joined mid-execution, user-level sharing). Future joiners
	// with lower ranks are unknowable there, so fencing falls back to the
	// full rank barrier whenever it is set.
	openShared bool
	// exported marks a region whose payload currently lives in the remote
	// pool (export.go): the local buddy space, device reservation, and
	// backing are released, and token names the remote placement. The
	// region keeps device as its pricing identity and recall target, so
	// virtual access costs never depend on whether it was away.
	exported bool
	// first is the handle Alloc returns, the initial owner's: it lives in the
	// region it points to, so a region and its first handle are one object.
	first Handle
}

// ownersInline is how many owners a region holds in place. A transferred
// output has one owner at a time and a shared one its producer plus its
// consumers until the producer lets go, so a fan-out of up to three never
// leaves the region.
const ownersInline = 4

// ownerSlot is one owner of a region and the compute device it runs on.
type ownerSlot struct {
	owner   Owner
	compute string
}

// ownerSet is a region's owners with their compute devices, held as a value:
// the first ownersInline in place, the rest in a spill slice that only a
// wider sharing ever allocates. Order carries no meaning. A region's
// ownership is read through find and len, written through add and remove, and
// walked (the rebalance sweep) through computes; nothing else knows the layout.
type ownerSet struct {
	n      int // owners held, in place and spilled
	inline [ownersInline]ownerSlot
	spill  []ownerSlot
}

// at returns the i'th slot, 0 ≤ i < s.n.
func (s *ownerSet) at(i int) *ownerSlot {
	if i < ownersInline {
		return &s.inline[i]
	}
	return &s.spill[i-ownersInline]
}

// len returns the number of owners.
func (s *ownerSet) len() int { return s.n }

// computes calls f with the compute device of each owner, until f returns
// false.
func (s *ownerSet) computes(f func(compute string) bool) {
	for i := 0; i < s.n; i++ {
		if !f(s.at(i).compute) {
			return
		}
	}
}

// find returns the slot o holds, nil if o is not an owner.
func (s *ownerSet) find(o Owner) *ownerSlot {
	for i := 0; i < s.n; i++ {
		if sl := s.at(i); sl.owner == o {
			return sl
		}
	}
	return nil
}

// add makes o, running on compute, an owner. The caller has checked that it
// is not one already.
func (s *ownerSet) add(o Owner, compute string) {
	if s.n >= ownersInline {
		if s.spill == nil {
			// Whoever shares past the inline slots is a fan-out, and usually a
			// wide one: start at a size that does not regrow at once.
			s.spill = make([]ownerSlot, 0, 2*ownersInline)
		}
		s.spill = append(s.spill[:s.n-ownersInline], ownerSlot{})
	}
	s.n++
	*s.at(s.n - 1) = ownerSlot{o, compute}
}

// remove takes o out of the set — the last slot moves into its place — and
// reports whether it was there.
func (s *ownerSet) remove(o Owner) bool {
	sl := s.find(o)
	if sl == nil {
		return false
	}
	last := s.at(s.n - 1)
	*sl, *last = *last, ownerSlot{}
	s.n--
	return true
}

// coherent reports whether accesses to the region run the coherence protocol,
// which is to say whether the directory may know the region at all: shared
// ownership of memory required to be coherent (§2.2). Once true it stays true.
// Caller holds r.mu or Manager.mu.
func (r *Region) coherent() bool {
	return r.everShared && r.req.Coherent == props.Require
}

// Manager owns all regions, per-device allocators, the coherence directory,
// and the placement policy — RTS duties (1)–(3) of §2.3.
type Manager struct {
	topo   *topology.Topology
	placer Placer
	dir    *coherence.Directory
	reg    *telemetry.Registry

	// mu guards the manager's tables below. Whoever changes a region's
	// placement, ownership or lifetime holds it, and the region's own lock
	// while it writes the region's fields.
	mu      sync.Mutex
	nextID  ID
	regions map[ID]*Region
	buddies map[string]*allocator.Buddy
	backing allocator.BufList // freed regions' data backings, recycled by block class
	secret  [32]byte          // root key material for confidential regions; fixed by NewManager, read without mu
	// exporter, when set, is the remote memory pool cold regions can be
	// evicted to (export.go). Nil keeps all tiering node-local.
	exporter Exporter

	// missLatency prices a coherence protocol action when the effective-caps
	// lookup for the accessing compute fails (disconnected topology). The
	// protocol must never be silently free, so the charge defaults to the
	// slowest memory device's latency — pessimistic but deterministic.
	// Immutable after NewManager.
	missLatency time.Duration

	// The counters every access adds to, resolved once so the access path
	// neither builds their keys nor takes the registry lock. An access priced
	// through a task's clock view defers the add to the view (count).
	bytesRead, bytesWritten            *telemetry.Counter
	invalidations, writebacks, fetches *telemetry.Counter
	// And the lifecycle counters — an allocation, a share, a transfer, a free
	// each add to one or two — resolved the same way, so a region's life takes
	// the registry lock no more than an access does.
	allocs, frees, bytesAllocated         *telemetry.Counter
	shares, zeroCopies, migratedTransfers *telemetry.Counter
	migrations, bytesMigrated             *telemetry.Counter
}

// Config assembles a Manager.
type Config struct {
	Topology  *topology.Topology
	Placer    Placer               // nil → FirstFit baseline
	Telemetry *telemetry.Registry  // nil → disabled
	Directory *coherence.Directory // nil → fresh directory
}

// NewManager builds a region manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Topology == nil {
		return nil, errors.New("region: topology required")
	}
	if cfg.Placer == nil {
		cfg.Placer = FirstFit{Topo: cfg.Topology}
	}
	if cfg.Directory == nil {
		cfg.Directory = coherence.NewDirectory()
	}
	m := &Manager{
		topo:    cfg.Topology,
		placer:  cfg.Placer,
		dir:     cfg.Directory,
		reg:     cfg.Telemetry,
		regions: make(map[ID]*Region),
		buddies: make(map[string]*allocator.Buddy),
		backing: allocator.BufList{Limit: backingFreeBytes},

		bytesRead:     cfg.Telemetry.Handle(telemetry.LayerRegion, "bytes_read"),
		bytesWritten:  cfg.Telemetry.Handle(telemetry.LayerRegion, "bytes_written"),
		invalidations: cfg.Telemetry.Handle(telemetry.LayerCoherence, "invalidations"),
		writebacks:    cfg.Telemetry.Handle(telemetry.LayerCoherence, "writebacks"),
		fetches:       cfg.Telemetry.Handle(telemetry.LayerCoherence, "fetches"),

		allocs:            cfg.Telemetry.Handle(telemetry.LayerRegion, "allocs"),
		frees:             cfg.Telemetry.Handle(telemetry.LayerRegion, "frees"),
		bytesAllocated:    cfg.Telemetry.Handle(telemetry.LayerRegion, "bytes_allocated"),
		shares:            cfg.Telemetry.Handle(telemetry.LayerRegion, "shares"),
		zeroCopies:        cfg.Telemetry.Handle(telemetry.LayerRegion, "transfers_zero_copy"),
		migratedTransfers: cfg.Telemetry.Handle(telemetry.LayerRegion, "transfers_migrated"),
		migrations:        cfg.Telemetry.Handle(telemetry.LayerRegion, "migrations"),
		bytesMigrated:     cfg.Telemetry.Handle(telemetry.LayerRegion, "bytes_migrated"),
	}
	m.missLatency = time.Microsecond
	for _, dev := range cfg.Topology.Memories() {
		if dev.Latency > m.missLatency {
			m.missLatency = dev.Latency
		}
	}
	copy(m.secret[:], "repro/disagg-region-root-key-v1!")
	return m, nil
}

// backingFreeBytes bounds the freed regions' backings a manager keeps for
// reuse — region churn in serving batches otherwise reallocates identical
// backings every job — so a burst of large regions cannot pin their memory
// forever.
const backingFreeBytes = 8 << 20

// Topology returns the hardware graph the manager places onto.
func (m *Manager) Topology() *topology.Topology { return m.topo }

// Directory exposes the coherence directory (for tests and reports).
func (m *Manager) Directory() *coherence.Directory { return m.dir }

// largestPow2 returns the largest power of two ≤ n.
func largestPow2(n int64) int64 {
	p := int64(1)
	for p<<1 > 0 && p<<1 <= n {
		p <<= 1
	}
	return p
}

// buddyFor lazily creates the allocator for a device. Caller holds m.mu.
func (m *Manager) buddyFor(dev *memsim.Device) (*allocator.Buddy, error) {
	if b, ok := m.buddies[dev.ID]; ok {
		return b, nil
	}
	b, err := allocator.New(largestPow2(dev.Capacity))
	if err != nil {
		return nil, err
	}
	m.buddies[dev.ID] = b
	return b, nil
}

// Alloc satisfies a declarative memory request: it merges the class-default
// properties with the caller's refinements, asks the placer for a device,
// validates the match, reserves capacity, and returns the initial owner's
// handle.
func (m *Manager) Alloc(spec Spec) (*Handle, error) {
	if spec.Size <= 0 {
		return nil, fmt.Errorf("region: size %d", spec.Size)
	}
	if spec.Owner == "" {
		return nil, errors.New("region: owner required")
	}
	if _, ok := m.topo.Compute(spec.Compute); !ok {
		return nil, fmt.Errorf("region: unknown compute device %q", spec.Compute)
	}
	req, err := props.Merge(spec.Class.Defaults(), spec.Req)
	if err != nil {
		return nil, err
	}
	req.Capacity = allocator.BlockSize(spec.Size)

	devID := spec.Device
	if devID == "" {
		switch p := m.placer.(type) {
		case PlacerEpoch:
			if spec.Clock != nil {
				devID, err = p.PlaceEpoch(req, spec.Compute, spec.Now, spec.Clock)
				break
			}
			if pa, ok := m.placer.(PlacerAt); ok {
				devID, err = pa.PlaceAt(req, spec.Compute, spec.Now)
			} else {
				devID, err = m.placer.Place(req, spec.Compute)
			}
		case PlacerAt:
			devID, err = p.PlaceAt(req, spec.Compute, spec.Now)
		default:
			devID, err = m.placer.Place(req, spec.Compute)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s for %s on %s: %v", ErrNoPlacement, req, spec.Name, spec.Compute, err)
		}
	}
	dev, ok := m.topo.Memory(devID)
	if !ok {
		return nil, fmt.Errorf("region: placer chose unknown device %q", devID)
	}
	if dev.HardwareManaged {
		return nil, fmt.Errorf("region: %s is hardware-managed and cannot host regions", devID)
	}
	caps, ok := m.topo.EffectiveCaps(spec.Compute, devID)
	if !ok {
		return nil, fmt.Errorf("region: %s cannot address %s", spec.Compute, devID)
	}
	if ok, viol := req.Match(caps); !ok {
		return nil, fmt.Errorf("%w: placer chose %s violating %v", ErrNoPlacement, devID, viol)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	buddy, err := m.buddyFor(dev)
	if err != nil {
		return nil, err
	}
	off, err := buddy.Alloc(spec.Size)
	if err != nil {
		return nil, err
	}
	block := allocator.BlockSize(spec.Size)
	if err := dev.Reserve(block); err != nil {
		buddy.Free(off) //nolint:errcheck // offset came from this buddy
		return nil, err
	}
	id := m.nextID
	m.nextID++
	r := &Region{
		m: m, id: id, name: spec.Name, class: spec.Class, req: req,
		device: dev, offset: off, size: spec.Size, blockSize: block,
		data:   m.backing.Get(spec.Size, true),
		sealed: req.Confidential && caps.Remote,
		first:  Handle{owner: spec.Owner, compute: spec.Compute, clock: spec.Clock, rank: -1},
	}
	r.first.r = r
	r.owners.add(spec.Owner, spec.Compute)
	m.regions[id] = r
	m.allocs.Add(1)
	m.bytesAllocated.Add(block)
	return &r.first, nil
}

// free releases the region's resources: its local space or, for an exported
// region, its remote placement. The backing goes back to the pool only here,
// under the lock every access copies under, so no access ever touches a
// recycled backing. Caller holds m.mu and r.mu.
func (m *Manager) free(r *Region) {
	r.freed = true
	if r.exported {
		if m.exporter != nil {
			m.exporter.Drop(r.token) //nolint:errcheck // remote GC is best-effort
		}
	} else {
		if b, ok := m.buddies[r.device.ID]; ok {
			b.Free(r.offset) //nolint:errcheck // offset tracked by the manager
		}
		r.device.Release(r.blockSize)
		m.backing.Put(r.data)
		r.data = nil
	}
	if r.coherent() {
		m.dir.DropRegion(uint64(r.id))
	}
	delete(m.regions, r.id)
	m.frees.Add(1)
	m.bytesAllocated.Add(-r.blockSize)
}

// Live returns the number of live regions (leak checks in tests).
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.regions)
}

// DeviceBytes reports allocated bytes per device ID (utilization reports).
func (m *Manager) DeviceBytes() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64)
	for _, r := range m.regions {
		if r.exported {
			continue // lives in the remote pool, not on a local device
		}
		out[r.device.ID] += r.blockSize
	}
	return out
}

// FirstFit is the naive placement baseline the paper's intro warns about:
// it scans devices in topology order and takes the first hard-constraint
// match, ignoring latency/bandwidth quality entirely. Figure-1/claim
// benches contrast it against the cost-model optimizer.
type FirstFit struct {
	Topo *topology.Topology
}

// Place implements Placer.
func (f FirstFit) Place(req props.Requirements, computeID string) (string, error) {
	for _, dev := range f.Topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		caps, ok := f.Topo.EffectiveCaps(computeID, dev.ID)
		if !ok {
			continue
		}
		if req.Matches(caps) {
			return dev.ID, nil
		}
	}
	return "", fmt.Errorf("no matching device for %s from %s", req, computeID)
}

// Name implements Placer.
func (f FirstFit) Name() string { return "first-fit" }
