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
	"math"
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

// errNoClock refuses an allocation or a sweep that names no clock to price on.
var errNoClock = errors.New("region: clock required")

// Owner identifies a task (or job, or application) holding a region.
type Owner string

// ID is a region identifier, unique per Manager.
type ID uint64

// Placer decides which memory device serves a request; the placement
// package provides the policies.
type Placer interface {
	// Place returns the dense index (Topology.Memories) of the device to
	// allocate on from compute device c. now and clk are the requester's
	// virtual time and clock view, for a policy that steers by queue
	// backlog; a nil clk asks for a decision blind to backlog.
	Place(req props.Requirements, c *topology.ComputeDevice, now time.Duration, clk *topology.TaskView) (int, error)
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
	// Now is the requester's virtual time at allocation. A placer may read
	// each device's queue backlog in Clock as of Now — the "resource
	// utilization" signal §3's challenges 1-3 ask the RTS to track. Zero is
	// a valid time (job start).
	Now time.Duration
	// Clock is the virtual-time view all of this region's accesses are
	// queued against and counted in: in a run, the wavefront task's causal
	// view. It is required: a device keeps no queue of its own. Handles
	// derived from the allocation (shares, transfers) inherit it, so one
	// view's backlog never leaks into another — the isolation concurrent job
	// submission requires. A view is one goroutine's: its counts reach the
	// shared counters when its holder publishes it.
	Clock *topology.TaskView
}

// Region is the manager-internal state of one memory region. Every handle to
// it holds the *Region itself, so an access finds it without the manager, and
// lives in the region's own storage (newHandle).
type Region struct {
	// Fixed at Alloc.
	m         *Manager
	id        ID
	class     props.RegionClass
	req       props.Requirements
	size      int64
	blockSize int64

	// mu is the region's one lock: it guards every field below, which is
	// everything an access reads, and an access takes no other. A field below
	// is written only with mu held. The placement fields — device, offset,
	// data, token and the sealed, freed and exported flags — are written by
	// whoever moves the payload or frees the region, which holds Manager.mu as
	// well, so a holder of Manager.mu may read those without mu (data and
	// dirty aside: Alloc makes a fresh backing after publishing the region,
	// and the first touch clears a recycled one, under mu alone). The
	// ownership fields — gen, owners, sharers, slots, the sharing flags and
	// each handle's owns flag — and heat change under mu alone: a share, a
	// zero-copy transfer and a release that leaves another owner take no
	// other lock, so only a holder of mu may read them. Lock order:
	// Manager.mu before mu, never the reverse — a caller that needs the
	// manager (recall, migration, the last owner's free) lets go of mu first
	// and validates again once it holds both. Only a holder of Manager.mu ever
	// holds two regions' locks at once.
	mu     sync.Mutex
	device *memsim.Device
	offset int64  // offset within the device's buddy arena
	data   []byte // real host backing; ciphertext when sealed; read through bytes
	gen    uint64 // bumped on ownership transfer to invalidate handles
	owners ownerSet
	heat   uint32 // accesses since the last rebalance epoch (tiering), saturating
	// idx is the region's slot in Manager.regions, read and written under
	// Manager.mu alone: a free moves the table's last region into the slot
	// it leaves.
	idx int32
	// sharers is the happens-before sharer set: the deterministic task
	// ranks that were ever granted ownership through the rank-aware share
	// path (ShareRanked — the runtime's output fan-out). An access through
	// a ranked handle fences only against the *lower* ranks in this set
	// instead of every lower rank of the run, so a region whose sharing
	// phase has passed stops paying the global barrier. Kept ascending, in
	// the region's own storage until a fan-out outgrows it; complete before
	// any sharing consumer can access, because the runtime grants all fan-out
	// shares at producer completion — which happens-before every consumer
	// launch. Nil for a class that cannot be shared.
	sharers []int32
	// slots is the handle storage no handle has taken yet: the rest of the
	// region's own, then a spill chunk. newHandle takes from the front, so no
	// slot is handed out twice in the region's life.
	slots []Handle
	token string // names the remote placement while exported
	// The flags sit together so they pack into one word: a region is
	// allocated per task output, and its size class is counted per job.
	sealed bool // encrypted at rest
	freed  bool
	// dirty marks a backing that does not yet hold the region's zeros: a
	// recycled one still holds its last user's bytes, and a sealed one needs
	// the ciphertext of zeros. Alloc sets it, and the region's first touch
	// (bytes) establishes the zeros, so a region nobody reads or writes is
	// never cleared or sealed.
	dirty bool
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
	// mem is device's dense index (Topology.Memories), written with device;
	// it fits the word the flags leave.
	mem uint16
}

// ownersInline is how many owners a region holds in place. A transferred
// output has one owner at a time and a shared one its producer plus its
// consumers until the producer lets go, so a fan-out of up to three never
// leaves the region.
const ownersInline = 4

// A region and the handles it gives out are one allocation, its storage
// sized by what its class can do: a private scratch region has only the
// handle Alloc returns, a transferable one that and a transferee's, and a
// shareable one a producer's, ownersInline−1 sharers' and their ranks.
type (
	privateRegion struct {
		r     Region
		slots [1]Handle
	}
	movableRegion struct {
		r     Region
		slots [2]Handle
	}
	sharedRegion struct {
		r       Region
		slots   [ownersInline]Handle
		sharers [ownersInline]int32
	}
)

// newRegion allocates a region of class with its handle storage. Regions are
// never recycled: a handle lives in its region, so a recycled region would
// give a handle a task body kept to a new owner.
func newRegion(class props.RegionClass) *Region {
	switch {
	case class.Shareable():
		w := new(sharedRegion)
		w.r.slots, w.r.sharers = w.slots[:], w.sharers[:0]
		return &w.r
	case class.Transferable():
		w := new(movableRegion)
		w.r.slots = w.slots[:]
		return &w.r
	default:
		w := new(privateRegion)
		w.r.slots = w.slots[:]
		return &w.r
	}
}

// regionSpill is a region's storage past its own, taken at its first spill:
// 2·ownersInline more handles, and room for as many more owners and sharer
// ranks, so a fan-out up to 3·ownersInline−1 consumers wide costs this one
// allocation.
type regionSpill struct {
	slots   [2 * ownersInline]Handle
	owners  [2 * ownersInline]*Handle
	sharers [3 * ownersInline]int32
}

// newHandle takes the region's next unused handle slot for owner, running on
// compute, and makes it an owner: the handle prices on clk, fences through f,
// and accesses at rank. A slot is never taken twice: a handle a task body kept
// stays the dead handle it was. Caller holds r.mu, or has not published r.
func (r *Region) newHandle(owner Owner, compute string, clk *topology.TaskView, f Fence, rank int32) *Handle {
	if len(r.slots) == 0 {
		r.spill()
	}
	h := &r.slots[0]
	r.slots = r.slots[1:]
	*h = Handle{r: r, gen: r.gen, owner: owner, compute: compute, clock: clk, fence: f, rank: rank}
	r.owners.add(h)
	return h
}

// spill gives a region that has handed out all of its handle storage more.
// The first spill is one regionSpill, which the owner and sharer sets move
// into as well; a later one is a chunk of handles twice as wide as the owners,
// and the two sets grow by append. Caller holds r.mu.
func (r *Region) spill() {
	if r.owners.spill != nil {
		r.slots = make([]Handle, max(2*ownersInline, 2*r.owners.len()))
		return
	}
	sp := new(regionSpill)
	r.slots, r.owners.spill = sp.slots[:], sp.owners[:0]
	if r.sharers != nil {
		r.sharers = append(sp.sharers[:0], r.sharers...)
	}
}

// ownerSet is a region's owners: its live handles, held as a value — the
// first ownersInline in place, the rest in a spill slice that the region's
// first spill provides. Order carries no meaning. Membership is mirrored in
// each handle's owns flag, so a handle validates without a walk. A region's
// ownership is read through len, has and that flag, written through add and
// remove, and walked (the rebalance sweep) through computes; nothing else
// knows the layout.
type ownerSet struct {
	n      int // owners held, in place and spilled
	inline [ownersInline]*Handle
	spill  []*Handle
}

// at returns the i'th slot, 0 ≤ i < s.n.
func (s *ownerSet) at(i int) **Handle {
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
		if !f((*s.at(i)).compute) {
			return
		}
	}
}

// has reports whether o holds one of the live handles.
func (s *ownerSet) has(o Owner) bool {
	for i := 0; i < s.n; i++ {
		if (*s.at(i)).owner == o {
			return true
		}
	}
	return false
}

// add makes h an owner. The caller has checked that h's owner is not one
// already.
func (s *ownerSet) add(h *Handle) {
	if s.n >= ownersInline {
		s.spill = append(s.spill[:s.n-ownersInline], nil)
	}
	s.n++
	*s.at(s.n - 1) = h
	h.owns = true
}

// remove takes h out of the set — the last slot moves into its place. h is
// an owner.
func (s *ownerSet) remove(h *Handle) {
	for i := 0; i < s.n; i++ {
		if sl := s.at(i); *sl == h {
			last := s.at(s.n - 1)
			*sl, *last = *last, nil
			s.n--
			h.owns = false
			return
		}
	}
}

// bytes returns the region's backing for a caller about to read or write it,
// making a dirty one zeros first — sealed zeros, the keystream, when the
// region is sealed: a region reads zeros until it is written. Caller holds
// r.mu.
func (r *Region) bytes() []byte {
	if r.dirty {
		clear(r.data)
		if r.sealed {
			keystreamAt(r.m.secret, r.id, 0, r.data)
		}
		r.dirty = false
	}
	return r.data
}

// coherent reports whether accesses to the region run the coherence protocol,
// which is to say whether the directory may know the region at all: shared
// ownership of memory required to be coherent (§2.2). Once true it stays true.
// Caller holds r.mu.
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

	// mu guards the manager's tables below: the region table, the buddy
	// arenas, device reservations and the backing free list. Whoever changes a
	// region's placement or ends its life holds it, and the region's own lock
	// while it writes the region's fields. A change of ownership that moves no
	// bytes does not take it.
	mu     sync.Mutex
	nextID ID
	// regions is the live regions in no particular order, each at its idx.
	regions []*Region
	buddies []*allocator.Buddy // by memory device index, each made on first use
	backing allocator.BufList  // freed regions' data backings, recycled by block class
	secret  [32]byte           // root key material for confidential regions; fixed by NewManager, read without mu
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
	// neither builds their keys nor takes the registry lock. An access defers
	// the add to its clock's ledger (TaskView.Defer).
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
	Placer    Placer
	Telemetry *telemetry.Registry // nil → disabled
}

// NewManager builds a region manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Topology == nil {
		return nil, errors.New("region: topology required")
	}
	if cfg.Placer == nil {
		return nil, errors.New("region: placer required")
	}
	mems := cfg.Topology.Memories()
	if len(mems) > math.MaxUint16+1 {
		return nil, fmt.Errorf("region: %d memory devices, more than a region indexes", len(mems))
	}
	m := &Manager{
		topo:    cfg.Topology,
		placer:  cfg.Placer,
		dir:     coherence.NewDirectory(),
		reg:     cfg.Telemetry,
		buddies: make([]*allocator.Buddy, len(mems)),
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
	for _, dev := range mems {
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

// buddyFor lazily creates the allocator for the memory device with dense
// index mem. Caller holds m.mu.
func (m *Manager) buddyFor(mem uint16) (*allocator.Buddy, error) {
	if b := m.buddies[mem]; b != nil {
		return b, nil
	}
	b, err := allocator.New(largestPow2(m.topo.Memories()[mem].Capacity))
	if err != nil {
		return nil, err
	}
	m.buddies[mem] = b
	return b, nil
}

// freeSpace gives a region's space back to its device's allocator. Caller
// holds m.mu.
func (m *Manager) freeSpace(r *Region) {
	if b := m.buddies[r.mem]; b != nil {
		b.Free(r.offset) //nolint:errcheck // offset tracked by the manager
	}
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
	if spec.Clock == nil {
		return nil, errNoClock
	}
	c, ok := m.topo.Compute(spec.Compute)
	if !ok {
		return nil, fmt.Errorf("region: unknown compute device %q", spec.Compute)
	}
	req, err := props.Merge(spec.Class.Defaults(), spec.Req)
	if err != nil {
		return nil, err
	}
	req.Capacity = allocator.BlockSize(spec.Size)

	mems := m.topo.Memories()
	var mem int
	if spec.Device != "" {
		if mem, ok = m.topo.MemoryIndex(spec.Device); !ok {
			return nil, fmt.Errorf("region: placer chose unknown device %q", spec.Device)
		}
	} else if mem, err = m.placer.Place(req, c, spec.Now, spec.Clock); err != nil {
		return nil, fmt.Errorf("%w: %s for %s on %s: %v", ErrNoPlacement, req, spec.Name, spec.Compute, err)
	} else if mem < 0 || mem >= len(mems) {
		return nil, fmt.Errorf("region: placer chose unknown device index %d", mem)
	}
	dev := mems[mem]
	devID := dev.ID
	if dev.HardwareManaged {
		return nil, fmt.Errorf("region: %s is hardware-managed and cannot host regions", devID)
	}
	rt, ok := m.topo.ComputeSet().Route(c.Index(), mem)
	if !ok {
		return nil, fmt.Errorf("region: %s cannot address %s", spec.Compute, devID)
	}
	caps := rt.Caps()
	if ok, viol := req.Match(caps); !ok {
		return nil, fmt.Errorf("%w: placer chose %s violating %v", ErrNoPlacement, devID, viol)
	}

	// The region and its first handle — one allocation — are built before the
	// table lock, which covers only what the manager's tables hold: the space,
	// the id, a recycled backing and the insert. The region is published with
	// its own lock held, and a fresh backing is made after the table lock is
	// dropped but before the region's is. A recycled or sealed backing is
	// marked dirty and made zeros at the region's first touch (bytes), so no
	// access and no sweep ever sees old bytes or unsealed keystream.
	block := allocator.BlockSize(spec.Size)
	r := newRegion(spec.Class)
	r.m, r.class, r.req = m, spec.Class, req
	r.device, r.mem, r.size, r.blockSize = dev, uint16(mem), spec.Size, block
	r.sealed = req.Confidential && caps.Remote
	h := r.newHandle(spec.Owner, spec.Compute, spec.Clock, nil, -1)
	h.rt = rt
	m.mu.Lock()
	buddy, err := m.buddyFor(r.mem)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if r.offset, err = buddy.Alloc(spec.Size); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if err := dev.Reserve(block); err != nil {
		buddy.Free(r.offset) //nolint:errcheck // offset came from this buddy
		m.mu.Unlock()
		return nil, err
	}
	r.id = m.nextID
	m.nextID++
	r.data = m.backing.Reuse(spec.Size)
	r.dirty = r.data != nil || r.sealed
	r.mu.Lock()
	r.idx = int32(len(m.regions))
	m.regions = append(m.regions, r)
	m.mu.Unlock()
	if r.data == nil {
		r.data = m.backing.Make(spec.Size)
	}
	r.mu.Unlock()
	m.allocs.Add(1)
	m.bytesAllocated.Add(block)
	return h, nil
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
		m.freeSpace(r)
		r.device.Release(r.blockSize)
		m.backing.Put(r.data)
		r.data = nil
	}
	if r.coherent() {
		m.dir.DropRegion(uint64(r.id))
	}
	last := m.regions[len(m.regions)-1]
	m.regions[r.idx], last.idx = last, r.idx
	m.regions[len(m.regions)-1] = nil
	m.regions = m.regions[:len(m.regions)-1]
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
