package region

import (
	"fmt"
	"time"

	"repro/internal/coherence"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Handle is a capability to a region held by one owner. Handles implement
// the move semantics of Fig. 4: Transfer invalidates the source handle (the
// generation counter bumps), so use-after-move is a runtime error instead of
// silent aliasing — the closest a GC language gets to C++ moves (challenge 6).
//
// All access methods take and return *virtual* time: `now` is the caller's
// task-local clock, the returned value is the access completion time.
type Handle struct {
	// r is the region itself, held for the handle's whole life: an access
	// locks it and validates the handle against it, with no table between
	// them, and reaches the manager through it. A freed region stays behind
	// its handles as a tombstone.
	r   *Region
	gen uint64
	// ownVer is r.ownVer as of the last time owner was found among the
	// region's owners; while it still matches, owner is still there.
	ownVer  uint64
	owner   Owner
	compute string
	// clock, when non-nil, is the virtual-time view accesses through this
	// handle queue against; nil uses the device-global queues. Derived
	// handles (Share, Transfer) inherit it; the runtime rebinds it when a
	// handle crosses a task boundary (Rebind).
	clock topology.VClock
	// fence, when non-nil, is called before any access that may run the
	// coherence protocol on a shared region. The wavefront runtime installs
	// a rank-order barrier here so directory traffic happens in schedule
	// order regardless of wall-clock interleaving. A fence error aborts the
	// access.
	fence Fence
	// rank is the deterministic schedule rank of the task accessing through
	// this handle, or -1 when unranked (sequential mode, app-level handles).
	// A ranked access on a closed-sharing region fences only against the
	// region's lower-rank sharers instead of the whole run. Half a word, next
	// to dev's half: a handle is allocated per owner of every task output, and
	// its 128 bytes fill their size class.
	rank int32
	// dev is compute's index in the coherence directory, which the handle's
	// first coherent access resolves; zero until then. Written under r.mu.
	dev coherence.Dev
	// deps is the reusable buffer fenceDeps filters sharer ranks into, so
	// the per-access dependency list costs zero allocations. Owned by the
	// task goroutine currently bound to the handle.
	deps []int
	// rt caches the resolved route from compute to the region's device, so
	// pricing an access probes no routing table. It is good for as long as
	// it still leads to the device the region is on — a migration (Transfer,
	// Rebalance) changes r.device and the next access re-resolves by itself
	// — and the graph it was resolved on has not changed. Nil until the
	// first access, and while the pair does not resolve. Like ownVer, written
	// under r.mu.
	rt *topology.Route
}

// Fence is the pre-access barrier the runtime installs on handles whose
// accesses may run the coherence protocol. deps, when non-nil, lists the
// task ranks the access must happen after — the region's lower-rank sharer
// set; After returns once all of them have retired. A nil deps demands
// the full rank barrier (every lower rank retired): the conservative form
// used for open sharing, where future joiners are unknowable. An empty
// non-nil deps is an established happens-before — no waiting at all.
//
// It is an interface so that the runtime's per-task state can be the fence
// of every handle the task touches: installing it allocates nothing.
type Fence interface {
	After(deps []int) error
}

// Rebind installs clock view, task rank, and fence together — the runtime's
// task-boundary handoff. A handle crossing into a task must get all three
// from that task (its causal view, its schedule rank, its rank fence);
// rebinding them atomically at one call site keeps the triple from drifting
// apart as handoff points multiply. Only called at handoff points, never
// concurrently with accesses through the same handle.
func (h *Handle) Rebind(clk topology.VClock, rank int, f Fence) {
	h.clock = clk
	h.rank = int32(rank)
	h.fence = f
}

// ID returns the region id.
func (h *Handle) ID() ID { return h.r.id }

// Owner returns the owning task.
func (h *Handle) Owner() Owner { return h.owner }

// enter locks the handle's region and validates the handle against it: not
// freed, not moved from, still an owner. On an error nothing is left locked.
func (h *Handle) enter() (*Region, error) {
	r := h.r
	r.mu.Lock()
	var err error
	switch {
	case r.freed:
		err = ErrFreed
	case r.gen != h.gen:
		err = ErrStaleHandle
	case h.ownVer != r.ownVer:
		if r.owners.find(h.owner) != nil {
			h.ownVer = r.ownVer
		} else {
			err = fmt.Errorf("%w: %s", ErrNotOwner, h.owner)
		}
	}
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	return r, nil
}

// look validates the handle and reads one property off its region, under
// the region's lock.
func look[T any](h *Handle, get func(*Region) T) (v T, err error) {
	r, err := h.enter()
	if err != nil {
		return v, err
	}
	defer r.mu.Unlock()
	return get(r), nil
}

// Size returns the region's logical size in bytes.
func (h *Handle) Size() (int64, error) {
	return look(h, func(r *Region) int64 { return r.size })
}

// DeviceID returns the physical device the region is placed on — how tests
// and reports observe the runtime's mapping decision (Fig. 3).
func (h *Handle) DeviceID() (string, error) {
	return look(h, func(r *Region) string { return r.device.ID })
}

// Class returns the region class.
func (h *Handle) Class() (props.RegionClass, error) {
	return look(h, func(r *Region) props.RegionClass { return r.class })
}

// Sealed reports whether the region is encrypted at rest.
func (h *Handle) Sealed() (bool, error) {
	return look(h, func(r *Region) bool { return r.sealed })
}

// checkRange validates [off, off+n) against the region.
func checkRange(r *Region, off, n int64) error {
	if off < 0 || n < 0 || off+n > r.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, r.size)
	}
	return nil
}

// coherenceCost runs the directory protocol for the touched lines of a
// shared region — one call into the directory, whatever the lines — and
// prices the actions; rt is the accessor's route to the region's device, nil
// when it does not resolve. Caller holds r.mu.
func (h *Handle) coherenceCost(rt *topology.Route, off, n int64, write bool) time.Duration {
	r, m := h.r, h.r.m
	if !r.coherent() || n == 0 {
		return 0 // exclusive ownership needs no protocol (§2.2), and no bytes touch no line
	}
	// Each protocol action costs one traversal to the region's home device.
	// An unresolved route (disconnected topology) must not make the
	// protocol silently free: count the miss and charge the pessimistic
	// manager-wide default instead.
	latency := m.missLatency
	if rt != nil {
		latency = rt.Lat
	} else {
		m.reg.Add(telemetry.LayerCoherence, "topology_miss", 1)
	}
	const lineSize = 64
	acts := m.dir.Access(h.compute, &h.dev, uint64(r.id), uint64(off/lineSize), uint64((off+n-1)/lineSize), write)
	count(h.clock, m.invalidations, int64(acts.Invalidations))
	count(h.clock, m.writebacks, int64(acts.Writebacks))
	count(h.clock, m.fetches, int64(acts.Fetches))
	return time.Duration(acts.Total()) * latency
}

// count adds n to one of the manager's per-access counters: at once, or —
// for an access priced through a task's own clock view — in the view's
// ledger, which the runtime publishes when the task retires.
func count(clk topology.VClock, c *telemetry.Counter, n int64) {
	if v, ok := clk.(*topology.TaskView); ok {
		v.Defer(c, n)
		return
	}
	c.Add(n)
}

// fenceDeps decides what the pre-access fence must wait for: nil demands
// the full rank barrier (open sharing, or an unranked handle that cannot
// prove anything about ordering); otherwise the region's sharer ranks below
// the accessor's own — returned in the handle's reusable buffer, non-nil
// even when empty. Caller holds r.mu.
func (h *Handle) fenceDeps() []int {
	r := h.r
	if r.openShared || h.rank < 0 {
		return nil
	}
	if h.deps == nil {
		h.deps = make([]int, 0, 4)
	}
	h.deps = h.deps[:0]
	for _, s := range r.sharers {
		if s < int(h.rank) {
			h.deps = append(h.deps, s)
		}
	}
	return h.deps
}

// route returns the resolved route from the handle's compute device to the
// region's current device: the cached one while it is still good, a fresh
// resolution otherwise. Nil when the pair does not resolve. Caller holds
// r.mu.
func (h *Handle) route() *topology.Route {
	if rt := h.rt; rt != nil && rt.Mem == h.r.device && rt.Valid() {
		return rt
	}
	h.rt, _ = h.r.m.topo.Route(h.compute, h.r.device.ID)
	return h.rt
}

// price queues one access over rt on the clock view clk, or on the
// device-global queues when there is none.
func (m *Manager) price(clk topology.VClock, rt *topology.Route, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) time.Duration {
	if clk != nil {
		return clk.AccessRoute(rt, now, size, kind, pat)
	}
	return m.topo.AccessRoute(rt, now, size, kind, pat)
}

// resident brings an exported region's payload home so the caller can touch
// it. Recall changes the manager's tables, so this is the one place an access
// needs the manager lock, and the lock order forbids taking it under r.mu:
// let go of the region, recall under both locks, come back and validate
// again. Whoever gets there first recalls; the others find it done. Caller
// holds r.mu; on an error nothing is left locked.
func (h *Handle) resident() error {
	for r := h.r; r.exported; {
		r.mu.Unlock()
		if err := h.r.m.recall(r); err != nil {
			return err
		}
		if _, err := h.enter(); err != nil {
			return err
		}
	}
	return nil
}

// access is the common data path. It moves real bytes between the region
// backing and the caller's buffer and returns the virtual completion time.
// Everything that decides and prices the access — validation, the sync
// check, fence, recall, bounds, queueing, coherence, counting — and the
// payload copy happen in one critical section of the region's own lock
// (reopened if a fence has to wait or an exported region has to come home),
// against the handle's cached route. The manager lock is not taken, and
// with a task's clock view no shared counter is written either, so tasks on
// different exclusive regions share nothing on this path; accesses to shared
// coherent regions meet at the directory's lock, once each.
//
// sync marks a synchronous load/store, which fails on a device that only
// exposes an asynchronous interface from here (Table 1's Sync column).
func (h *Handle) access(now time.Duration, off int64, buf []byte, write, sync bool, pat memsim.Pattern) (time.Duration, error) {
	r, err := h.enter()
	if err != nil {
		return now, err
	}
	rt := h.route()
	if sync && (rt == nil || !rt.Sync) {
		err := fmt.Errorf("%w: %s from %s", ErrSyncFarAccess, r.device.ID, h.compute)
		r.mu.Unlock()
		return now, err
	}
	// Fence exactly when coherenceCost may consult the directory: the
	// everShared bit flips before any sharing consumer's handle exists, so
	// never-shared regions skip the barrier entirely. Fencing drops the lock
	// (the fence blocks on other tasks, which may need it), so handle and
	// route are checked again afterwards.
	if h.fence != nil && r.coherent() {
		deps := h.fenceDeps()
		r.mu.Unlock()
		if err := h.fence.After(deps); err != nil {
			return now, err
		}
		if _, err := h.enter(); err != nil {
			return now, err
		}
		rt = h.route()
	}
	// Fetch-on-read: an exported region is recalled to its home device
	// before the access proceeds. The fabric read costs the accessor
	// wall-clock only (the verb's virtual price lands in telemetry, like
	// lazy hydration), and the region returns to the exact device it is
	// priced against, so the access below is byte-identical in virtual
	// time to a run that never exported.
	if r.exported {
		if err := h.resident(); err != nil {
			return now, err
		}
		rt = h.route()
	}
	n := int64(len(buf))
	if err := checkRange(r, off, n); err != nil {
		r.mu.Unlock()
		return now, err
	}
	r.heat++
	if rt == nil {
		err := h.r.m.topo.RouteError(h.compute, r.device.ID)
		r.mu.Unlock()
		return now, err
	}
	kind, moved := memsim.Read, h.r.m.bytesRead
	if write {
		kind, moved = memsim.Write, h.r.m.bytesWritten
	}
	done := h.r.m.price(h.clock, rt, now, n, kind, pat)
	done += h.coherenceCost(rt, off, n, write)
	count(h.clock, moved, n)
	if write {
		if r.sealed {
			sealRange(h.r.m.secret, r.id, r.data, off, buf)
		} else {
			copy(r.data[off:], buf)
		}
	} else {
		if r.sealed {
			unsealRange(h.r.m.secret, r.id, r.data, off, buf)
		} else {
			copy(buf, r.data[off:])
		}
	}
	r.mu.Unlock()
	return done, nil
}

// ReadAt synchronously reads len(buf) bytes at off. It fails on devices
// that only expose an asynchronous interface (Table 1's Sync column) —
// callers must use ReadAsync there, the point of §2.2(3).
func (h *Handle) ReadAt(now time.Duration, off int64, buf []byte) (time.Duration, error) {
	return h.access(now, off, buf, false, true, memsim.Sequential)
}

// WriteAt synchronously writes buf at off.
func (h *Handle) WriteAt(now time.Duration, off int64, buf []byte) (time.Duration, error) {
	return h.access(now, off, buf, true, true, memsim.Sequential)
}

// ReadAtRandom is ReadAt with a random-access cost profile (per-granule
// latency), for pointer-chasing workloads.
func (h *Handle) ReadAtRandom(now time.Duration, off int64, buf []byte) (time.Duration, error) {
	return h.access(now, off, buf, false, true, memsim.Random)
}

// Future is an in-flight asynchronous access (§2.2(3): far memory should be
// fetched in the background while the task computes).
type Future struct {
	done time.Duration
	err  error
}

// Await returns the virtual time at which the caller, currently at now,
// observes completion: max(now, completion). Computation performed between
// issue and Await is thereby overlapped with the transfer.
func (f *Future) Await(now time.Duration) (time.Duration, error) {
	if f.err != nil {
		return now, f.err
	}
	if f.done > now {
		return f.done, nil
	}
	return now, nil
}

// ReadAsync issues a background read and returns immediately; the returned
// Future completes at the device's virtual completion time.
func (h *Handle) ReadAsync(now time.Duration, off int64, buf []byte) *Future {
	done, err := h.access(now, off, buf, false, false, memsim.Sequential)
	return &Future{done: done, err: err}
}

// WriteAsync issues a background write.
func (h *Handle) WriteAsync(now time.Duration, off int64, buf []byte) *Future {
	done, err := h.access(now, off, buf, true, false, memsim.Sequential)
	return &Future{done: done, err: err}
}

// Hydrate writes raw bytes into the region backing without advancing any
// virtual clock, running the coherence protocol, or taking a fence. It is
// the re-materialization path for checkpoint replay: the write's virtual
// cost was already accounted when the bytes were first produced (and is
// re-charged to consumers as the recorded restore price), so pricing it
// again — or fencing on a region that is already shared with its replayed
// consumers — would make replayed virtual time diverge from the original
// run. Task bodies must never call it; they go through WriteAt/WriteAsync.
func (h *Handle) Hydrate(off int64, data []byte) error {
	r, err := h.enter()
	if err != nil {
		return err
	}
	if err := checkRange(r, off, int64(len(data))); err != nil {
		r.mu.Unlock()
		return err
	}
	if err := h.resident(); err != nil {
		return err
	}
	defer r.mu.Unlock()
	if r.sealed {
		sealRange(h.r.m.secret, r.id, r.data, off, data)
	} else {
		copy(r.data[off:], data)
	}
	return nil
}

// Transfer moves exclusive ownership to the next task (Fig. 4's
// "out becomes the new in"). If the receiving compute device can address
// the region's current device within the region's requirements, the
// transfer is pure bookkeeping — zero bytes move. Otherwise the runtime
// migrates the region to a device suitable for the receiver and pays the
// copy. The source handle is invalidated either way.
func (h *Handle) Transfer(now time.Duration, to Owner, toCompute string) (*Handle, time.Duration, error) {
	h.r.m.mu.Lock()
	defer h.r.m.mu.Unlock()
	r, err := h.enter()
	if err != nil {
		return nil, now, err
	}
	defer r.mu.Unlock()
	if !r.class.Transferable() {
		return nil, now, fmt.Errorf("%w: %s", ErrNotMovable, r.class)
	}
	if n := r.owners.len(); n != 1 {
		return nil, now, fmt.Errorf("%w: %d owners", ErrExclusive, n)
	}
	if _, ok := h.r.m.topo.Compute(toCompute); !ok {
		return nil, now, fmt.Errorf("region: unknown compute device %q", toCompute)
	}
	caps, addressable := h.r.m.topo.EffectiveCaps(toCompute, r.device.ID)
	zeroCopy := false
	if addressable {
		// The region already owns its space on the device, so the free-
		// capacity constraint does not apply to staying put.
		req := r.req
		req.Capacity = 0
		zeroCopy = req.Matches(caps)
	}
	r.gen++ // invalidate the source handle (move semantics)
	r.setOwner(h.owner, to, toCompute)
	nh := &Handle{r: r, gen: r.gen, ownVer: r.ownVer, owner: to, compute: toCompute, clock: h.clock, fence: h.fence, rank: h.rank}
	if zeroCopy {
		h.r.m.zeroCopies.Add(1)
		return nh, now, nil
	}
	// Migration: re-place for the receiver and copy through the fabric.
	done, err := h.r.m.migrateLocked(r, toCompute, now, h.clock)
	if err != nil {
		// Roll the ownership move back so the caller still owns the data.
		r.gen++
		r.setOwner(to, h.owner, h.compute)
		h.gen, h.ownVer = r.gen, r.ownVer
		return nil, now, err
	}
	h.r.m.migratedTransfers.Add(1)
	return nh, done, nil
}

// setOwner replaces owner from with owner to, running on compute. Caller
// holds m.mu and r.mu.
func (r *Region) setOwner(from, to Owner, compute string) {
	r.owners.remove(from)
	r.owners.add(to, compute)
	r.ownVer++
}

// migrateLocked moves a region to a device matching its requirements from
// computeID, paying read+write virtual time. Caller holds m.mu and r.mu.
func (m *Manager) migrateLocked(r *Region, computeID string, now time.Duration, clk topology.VClock) (time.Duration, error) {
	devID, err := m.placer.Place(r.req, computeID)
	if err != nil {
		return now, fmt.Errorf("%w: migration: %v", ErrNoPlacement, err)
	}
	return m.migrateToLocked(r, computeID, devID, now, clk)
}

// migrateToLocked moves a region to the named device. Caller holds m.mu and
// r.mu.
func (m *Manager) migrateToLocked(r *Region, computeID, devID string, now time.Duration, clk topology.VClock) (time.Duration, error) {
	dst, ok := m.topo.Memory(devID)
	if !ok {
		return now, fmt.Errorf("region: placer chose unknown device %q", devID)
	}
	if dst.ID == r.device.ID {
		return now, nil
	}
	to, ok := m.topo.Route(computeID, dst.ID)
	if !ok {
		return now, m.topo.RouteError(computeID, dst.ID)
	}
	// A local migration needs the payload resident; recall it first.
	if r.exported {
		if _, err := m.recallLocked(r); err != nil {
			return now, err
		}
	}
	buddy, err := m.buddyFor(dst)
	if err != nil {
		return now, err
	}
	off, err := buddy.Alloc(r.size)
	if err != nil {
		return now, err
	}
	if err := dst.Reserve(r.blockSize); err != nil {
		buddy.Free(off) //nolint:errcheck // offset came from this buddy
		return now, err
	}
	// Price the copy: read from the old home, write to the new one.
	rd := now // old home may be unreachable from the new compute; charge only the write then
	if from, ok := m.topo.Route(computeID, r.device.ID); ok {
		rd = m.price(clk, from, now, r.size, memsim.Read, memsim.Sequential)
	}
	wr := m.price(clk, to, rd, r.size, memsim.Write, memsim.Sequential)
	// Release the old placement.
	if b, ok := m.buddies[r.device.ID]; ok {
		b.Free(r.offset) //nolint:errcheck // offset tracked by the manager
	}
	r.device.Release(r.blockSize)
	if r.coherent() {
		m.dir.DropRegion(uint64(r.id))
	}
	r.device = dst
	r.offset = off
	// Crossing the on-/off-node boundary changes the at-rest encryption
	// obligation of confidential regions; toggle the sealing of the whole
	// backing (seal and unseal are the same XOR keystream).
	if newSealed := r.req.Confidential && to.Remote; newSealed != r.sealed {
		keystreamAt(m.secret, r.id, 0, r.data)
		r.sealed = newSealed
	}
	m.migrations.Add(1)
	m.bytesMigrated.Add(r.size)
	return wr, nil
}

// Share grants an additional concurrent owner (shared ownership, §2.2).
// The region class must allow sharing; Private Scratch never does.
//
// Share is the *open* sharing path: nothing bounds who may join later, so
// the region permanently falls back to the full rank barrier on fenced
// accesses. The runtime's output fan-out uses ShareRanked instead, which
// keeps the sharer set closed and the fence narrow.
func (h *Handle) Share(to Owner, toCompute string) (*Handle, error) {
	return h.share(to, toCompute, -1, true)
}

// ShareRanked grants an additional concurrent owner whose deterministic
// schedule rank is known — the runtime's producer→consumers output fan-out,
// where every share is granted at producer completion, before any consumer
// can launch. Because that closes the sharer set before the first fenced
// access, accesses need only fence against the recorded lower-rank sharers
// rather than the whole run. Both the producer's rank (this handle's) and
// the consumer's are recorded.
func (h *Handle) ShareRanked(to Owner, toCompute string, rank int) (*Handle, error) {
	return h.share(to, toCompute, rank, false)
}

func (h *Handle) share(to Owner, toCompute string, rank int, open bool) (*Handle, error) {
	h.r.m.mu.Lock()
	defer h.r.m.mu.Unlock()
	r, err := h.enter()
	if err != nil {
		return nil, err
	}
	defer r.mu.Unlock()
	if !r.class.Shareable() {
		return nil, fmt.Errorf("%w: %s", ErrNotShareable, r.class)
	}
	if _, ok := h.r.m.topo.Compute(toCompute); !ok {
		return nil, fmt.Errorf("region: unknown compute device %q", toCompute)
	}
	if !h.r.m.topo.Addressable(toCompute, r.device.ID) {
		return nil, fmt.Errorf("region: %s cannot address %s", toCompute, r.device.ID)
	}
	if r.owners.find(to) != nil {
		return nil, fmt.Errorf("region: %s already owns region %d", to, r.id)
	}
	r.owners.add(to, toCompute)
	r.everShared = true
	if open {
		r.openShared = true
	} else {
		r.addSharer(int(h.rank))
		r.addSharer(rank)
	}
	h.r.m.shares.Add(1)
	return &Handle{r: r, gen: r.gen, ownVer: r.ownVer, owner: to, compute: toCompute, clock: h.clock, fence: h.fence, rank: int32(rank)}, nil
}

// addSharer inserts a rank into the region's ascending sharer set, ignoring
// duplicates and unranked (-1) parties. Caller holds m.mu and r.mu.
func (r *Region) addSharer(rank int) {
	if rank < 0 {
		return
	}
	if r.sharers == nil {
		r.sharers = make([]int, 0, 2*ownersInline) // a producer and its consumers: sized like the owners they are
	}
	i := 0
	for i < len(r.sharers) && r.sharers[i] < rank {
		i++
	}
	if i < len(r.sharers) && r.sharers[i] == rank {
		return
	}
	r.sharers = append(r.sharers, 0)
	copy(r.sharers[i+1:], r.sharers[i:])
	r.sharers[i] = rank
}

// Release drops this owner's claim; the region is freed when the last owner
// releases it — RTS duty (3) of §2.3, replacing garbage collection with
// ownership-tracked lifetimes (Broom [25]).
func (h *Handle) Release() error {
	h.r.m.mu.Lock()
	defer h.r.m.mu.Unlock()
	r, err := h.enter()
	if err != nil {
		return err
	}
	defer r.mu.Unlock()
	r.owners.remove(h.owner)
	r.ownVer++
	if r.owners.len() == 0 {
		h.r.m.free(r)
	}
	return nil
}
