package region

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// This file implements the remote half of the tiering story: when a region
// goes cold past the local tier hierarchy (nothing on this node can take
// it), its payload can be exported to a remote memory pool reached over the
// cluster fabric, and recalled — fetched back on first access — when the
// region warms up again. MIND's thesis (memory-management state belongs in
// the network) shows up in the split of responsibilities: the Manager only
// decides *when* a region leaves or returns; *where* it lives remotely,
// which one-sided verbs move it, and who owns the remote slab is entirely
// the Exporter's business (cluster.RegionPool in production).
//
// The determinism contract: an exported region keeps its identity on its
// home device — r.device is never changed, the coherence directory keeps
// its lines, and a recall re-materializes the payload on the same device —
// so the *virtual* price of every access is byte-identical whether or not
// the region took a remote round trip. The fabric verbs of the export are
// priced into the maintenance sweep's own clock (RebalanceStats.Cost), and
// a recall on the access path costs the accessor wall-clock only, exactly
// like the lazy hydration of partial replay.

// ErrNoExporter reports an export attempt on a manager without a remote
// pool configured.
var ErrNoExporter = errors.New("region: no remote exporter configured")

// Exporter moves region payloads to and from a remote memory pool. The
// returned cost is the virtual time the fabric verbs took; the caller
// decides whose clock pays it (the maintenance sweep's, never a serving
// job's). Implementations must be safe for concurrent use; the manager
// calls them with its own lock and the region's held, so they must never
// call back into the region layer.
type Exporter interface {
	// Export pushes a region's payload to the remote pool and returns an
	// opaque token naming the remote placement.
	Export(id uint64, data []byte) (token string, cost time.Duration, err error)
	// Fetch retrieves the payload named by token into buf.
	Fetch(token string, buf []byte) (cost time.Duration, err error)
	// Drop releases the remote resources held under token. Unknown tokens
	// are tolerated (the remote host may have died and been GC'd).
	Drop(token string) error
}

// SetExporter wires a remote pool into the manager, enabling the
// rebalancer's eviction pass and the recall-on-access path.
func (m *Manager) SetExporter(e Exporter) {
	m.mu.Lock()
	m.exporter = e
	m.mu.Unlock()
}

// exportLocked pushes a region's payload to the remote pool and releases
// its local placement: buddy space, device reservation, and backing bytes
// all return to the node, which is the entire point of evicting. The
// region keeps r.device (its pricing identity and recall target) and its
// coherence-directory state, so no future access is priced differently for
// the region having been away. Sealed regions export their ciphertext
// as-is. Caller holds m.mu and r.mu, so no access is mid-copy.
func (m *Manager) exportLocked(r *Region) (time.Duration, error) {
	if m.exporter == nil {
		return 0, ErrNoExporter
	}
	token, cost, err := m.exporter.Export(uint64(r.id), r.bytes()[:r.size])
	if err != nil {
		return 0, err
	}
	m.freeSpace(r)
	r.device.Release(r.blockSize)
	m.backing.Put(r.data)
	r.data = nil
	r.mflags.set(flagExported, true)
	r.token = token
	m.reg.Add(telemetry.LayerRegion, "exports", 1)
	m.reg.Add(telemetry.LayerRegion, "bytes_exported", r.size)
	return cost, nil
}

// recallLocked brings an exported region home: it re-reserves space on the
// region's own device (evicting colder residents if the device filled up
// while the region was away), fetches the payload with one fabric read,
// and drops the remote copy. The returned cost is the fetch's virtual verb
// time — accounted to telemetry and, on sweep-driven recalls, the sweep's
// clock; the access path deliberately discards it so serving reports stay
// byte-identical to runs that never exported. Caller holds m.mu and r.mu.
func (m *Manager) recallLocked(r *Region) (time.Duration, error) {
	if m.exporter == nil {
		return 0, ErrNoExporter
	}
	buddy, err := m.buddyFor(r.mem)
	if err != nil {
		return 0, err
	}
	off, err := buddy.Alloc(r.size)
	if err != nil {
		if rerr := m.makeRoomLocked(r); rerr != nil {
			return 0, fmt.Errorf("region: recall of %d onto %s: %w", r.id, r.device.ID, rerr)
		}
		if off, err = buddy.Alloc(r.size); err != nil {
			return 0, err
		}
	}
	if err := r.device.Reserve(r.blockSize); err != nil {
		if rerr := m.makeRoomLocked(r); rerr != nil {
			buddy.Free(off) //nolint:errcheck // offset came from this buddy
			return 0, fmt.Errorf("region: recall of %d onto %s: %w", r.id, r.device.ID, rerr)
		}
		if err := r.device.Reserve(r.blockSize); err != nil {
			buddy.Free(off) //nolint:errcheck // offset came from this buddy
			return 0, err
		}
	}
	buf := m.backing.Get(r.size, true)
	cost, err := m.exporter.Fetch(r.token, buf)
	if err != nil {
		buddy.Free(off) //nolint:errcheck // offset came from this buddy
		r.device.Release(r.blockSize)
		m.backing.Put(buf)
		return 0, fmt.Errorf("region: recall of %d: %w", r.id, err)
	}
	m.exporter.Drop(r.token) //nolint:errcheck // remote GC is best-effort
	r.data = buf
	r.offset = off
	r.mflags.set(flagExported, false)
	r.token = ""
	m.reg.Add(telemetry.LayerRegion, "recalls", 1)
	m.reg.Add(telemetry.LayerRegion, "bytes_recalled", r.size)
	m.reg.Add(telemetry.LayerRegion, "recall_verb_ns", cost.Nanoseconds())
	return cost, nil
}

// recall is the access path's way to recallLocked: an access that found its
// region exported let go of the region lock to get here in lock order. By now
// another access, or a sweep, may have recalled the region, or its last owner
// freed it — both leave nothing to do; the access finds out when it validates
// again.
func (m *Manager) recall(r *Region) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mflags.has(flagFreed) || !r.mflags.has(flagExported) {
		return nil
	}
	_, err := m.recallLocked(r)
	return err
}

// coldestOn returns the resident regions on dev whose heat is at most
// maxHeat, coldest first (ties by id) — the order victims leave a device in.
// Heat is read once per region, under its lock, so accesses running beside
// the sweep cannot reorder the sort under it. Caller holds m.mu, and may hold
// the lock of except, which is left out.
func (m *Manager) coldestOn(dev *memsim.Device, maxHeat uint64, except *Region) []*Region {
	var cold []*Region
	heat := make(map[*Region]uint32)
	for _, r := range m.regions {
		if r == except || r.mflags.has(flagExported) || r.device != dev {
			continue
		}
		r.mu.Lock()
		h := r.heat
		r.mu.Unlock()
		if uint64(h) <= maxHeat {
			cold = append(cold, r)
			heat[r] = h
		}
	}
	sort.Slice(cold, func(i, j int) bool {
		if heat[cold[i]] != heat[cold[j]] {
			return heat[cold[i]] < heat[cold[j]]
		}
		return cold[i].id < cold[j].id
	})
	return cold
}

// makeRoomLocked exports the coldest resident regions of need's device
// until the device can take need back — the demand-paging eviction a full
// tier forces. Caller holds m.mu and need.mu.
func (m *Manager) makeRoomLocked(need *Region) error {
	if m.exporter == nil {
		return ErrNoExporter
	}
	for _, v := range m.coldestOn(need.device, math.MaxUint64, need) {
		if need.device.Free() >= need.blockSize {
			return nil
		}
		v.mu.Lock()
		m.exportLocked(v) //nolint:errcheck // best-effort; the post-check decides
		v.mu.Unlock()
	}
	if need.device.Free() >= need.blockSize {
		return nil
	}
	return fmt.Errorf("region: device %s cannot host %d bytes even after eviction", need.device.ID, need.blockSize)
}
