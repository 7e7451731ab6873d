package region

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// This file implements background memory tiering — the "reusable optimizer
// for various dataflow systems' data placement" the paper's §2.1 derives
// from ownership, in the spirit of TPP [40] and AIFM [48]: the runtime
// tracks per-region access heat and periodically (a) relieves pressure on
// over-full devices by demoting their coldest regions and (b) promotes hot
// regions whose current placement scores clearly worse than the best
// device currently available.
//
// Rebalancing is only possible *because* regions carry their requirements:
// any destination must still satisfy the region's declared properties, so
// tiering can never violate what the application asked for.

// RebalancePolicy tunes the tiering pass.
type RebalancePolicy struct {
	// EvictWatermark triggers the cross-node eviction pass: when a device's
	// utilization still exceeds it after local demotion and the manager has
	// an Exporter, the sweep exports the device's coldest regions to the
	// remote pool until utilization falls to min(lowWatermark,
	// EvictWatermark). Zero disables eviction (the default) — regions then
	// never leave the node.
	EvictWatermark float64
}

// What every tiering pass runs with, beside its policy.
const (
	// highWatermark triggers demotion when a device's utilization exceeds it.
	highWatermark = 0.90
	// lowWatermark is the demotion target.
	lowWatermark = 0.70
	// promoteHeat is the minimum epoch access count for promotion candidates.
	promoteHeat = 8
	// scoreMargin is how much better (in props.Score units) a destination
	// must be to justify moving a hot region.
	scoreMargin = 2
)

// evictHeat is the maximum epoch access count an eviction victim may have:
// hotter regions stay local no matter the pressure. A variable only so the
// lifetime stress test can make its constantly accessed regions evictable.
var evictHeat uint64 = 1

// RebalanceStats reports what a tiering pass did.
type RebalanceStats struct {
	Promoted   int
	Demoted    int
	BytesMoved int64
	// Exported counts regions evicted to the remote pool this pass, and
	// Recalled the exported regions pulled home because they ran hot again;
	// BytesExported/BytesRecalled are their payload volumes.
	Exported      int
	Recalled      int
	BytesExported int64
	BytesRecalled int64
	// Cost is the virtual time the migrations took (background work; the
	// caller decides whether to overlap or serialize it). Remote moves
	// charge their fabric verb time here — the sweep's clock, never a
	// serving job's.
	Cost time.Duration
}

// ownerCompute returns a deterministic representative compute device among
// a region's owners, "" when it has none. Caller holds r.mu: ownership changes
// under the region's lock alone.
func ownerCompute(r *Region) string {
	best := ""
	r.owners.computes(func(c string) bool {
		if best == "" || c < best {
			best = c
		}
		return true
	})
	return best
}

// addressableByAllOwners reports whether every owner's compute device can
// reach dev within the region's requirements. Caller holds m.mu and r.mu.
func (m *Manager) addressableByAllOwners(r *Region, dev string) bool {
	req := r.req
	req.Capacity = 0
	all := true
	r.owners.computes(func(c string) bool {
		caps, ok := m.topo.EffectiveCaps(c, dev)
		all = ok && req.Matches(caps)
		return all
	})
	return all
}

// RebalanceIn runs one tiering epoch at virtual time now and halves every
// region's heat afterwards (exponential decay). Migrations are priced and
// counted through clk, required like every other clock; the caller publishes
// it after the sweep. A maintenance sweep handed its own idle view runs fully
// inside that view's virtual clock, which is what makes the sweep safe to
// execute concurrently with serving: serving jobs price their work in their
// own views and never observe the sweep's backlog.
func (m *Manager) RebalanceIn(clk *topology.TaskView, now time.Duration, pol RebalancePolicy) (RebalanceStats, error) {
	if clk == nil {
		return RebalanceStats{}, errNoClock
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var stats RebalanceStats
	// The sweep holds the manager lock throughout, so no region is placed,
	// moved or freed under it; it takes a region's own lock while it reads
	// the region's owners or works on it — shares, zero-copy transfers and
	// releases that leave an owner change ownership under that lock alone —
	// and accesses and ownership changes of every other region run beside
	// it. moved books one migration of r that completed at done.
	moved := func(r *Region, n *int, done time.Duration) {
		*n++
		stats.BytesMoved += r.size
		if done > now {
			stats.Cost += done - now
		}
	}

	// Pass 1 — demotion: for every over-watermark device, move its coldest
	// regions to the best *other* matching device until below the low
	// watermark.
	for _, dev := range m.topo.Memories() {
		if dev.HardwareManaged || dev.Utilization() <= highWatermark {
			continue
		}
		for _, r := range m.coldestOn(dev, math.MaxUint64, nil) {
			if dev.Utilization() <= lowWatermark {
				break
			}
			r.mu.Lock()
			if comp := ownerCompute(r); comp != "" {
				if dst, ok := m.bestOtherDevice(r, comp, dev.ID); ok {
					if done, err := m.migrateToLocked(r, comp, dst, now, clk); err == nil { // best-effort: skip unmovable regions
						moved(r, &stats.Demoted, done)
					}
				}
			}
			r.mu.Unlock()
		}
	}

	// Deterministic region order for the remaining passes: by id. No region
	// leaves the table while the sweep holds the manager lock.
	byID := slices.Clone(m.regions)
	slices.SortFunc(byID, func(a, b *Region) int { return cmp.Compare(a.id, b.id) })

	// Pass 2 — promotion: hot regions move when a clearly better device
	// has room. An exported region that ran hot is recalled home instead —
	// the sweep-driven counterpart of fetch-on-read, paying the fabric
	// verbs on the sweep's clock.
	for _, r := range byID {
		r.mu.Lock()
		if r.heat < promoteHeat {
			r.mu.Unlock()
			continue
		}
		if r.exported {
			if cost, err := m.recallLocked(r); err == nil {
				stats.Recalled++
				stats.BytesRecalled += r.size
				stats.Cost += cost
			}
		} else if best, ok := m.promotionTarget(r); ok {
			if done, err := m.migrateToLocked(r, ownerCompute(r), best, now, clk); err == nil {
				moved(r, &stats.Promoted, done)
			}
		}
		r.mu.Unlock()
	}

	// Pass 3 — eviction: a device still over the eviction watermark after
	// local demotion has run out of local tiers for its cold set; export
	// the coldest regions to the remote pool. Only regions at or below
	// evictHeat leave — the sweep never exports the working set.
	if pol.EvictWatermark > 0 && m.exporter != nil {
		target := min(lowWatermark, pol.EvictWatermark)
		for _, dev := range m.topo.Memories() {
			if dev.HardwareManaged || dev.Utilization() <= pol.EvictWatermark {
				continue
			}
			for _, r := range m.coldestOn(dev, evictHeat, nil) {
				if dev.Utilization() <= target {
					break
				}
				r.mu.Lock()
				cost, err := m.exportLocked(r)
				r.mu.Unlock()
				if err != nil {
					break // pool out of capacity; stop hammering this device
				}
				stats.Exported++
				stats.BytesExported += r.size
				stats.Cost += cost
			}
		}
	}

	// Decay heat. An access counts under the region lock alone, so halving
	// under it loses no increment.
	for _, r := range byID {
		r.mu.Lock()
		r.heat >>= 1
		r.mu.Unlock()
	}
	m.reg.Add(telemetry.LayerPlacement, "rebalance_promotions", int64(stats.Promoted))
	m.reg.Add(telemetry.LayerPlacement, "rebalance_demotions", int64(stats.Demoted))
	m.reg.Add(telemetry.LayerPlacement, "rebalance_exports", int64(stats.Exported))
	m.reg.Add(telemetry.LayerPlacement, "rebalance_recalls", int64(stats.Recalled))
	return stats, nil
}

// promotionTarget names the device a hot resident region should move to: the
// placer's choice for it, when that is another device, scores better than
// the current one by at least scoreMargin, and every owner can address it.
// Caller holds m.mu and r.mu.
func (m *Manager) promotionTarget(r *Region) (string, bool) {
	comp := ownerCompute(r)
	curCaps, ok := m.topo.EffectiveCaps(comp, r.device.ID)
	if !ok {
		return "", false
	}
	c, _ := m.topo.Compute(comp) // EffectiveCaps found it
	req := r.req
	req.Capacity = r.blockSize
	i, err := m.placer.Place(req, c, 0, nil)
	if err != nil || i == int(r.mem) {
		return "", false
	}
	best := m.topo.Memories()[i].ID
	bestCaps, ok := m.topo.EffectiveCaps(comp, best)
	if !ok {
		return "", false
	}
	req.Capacity = 0
	if req.Score(bestCaps)-req.Score(curCaps) < scoreMargin {
		return "", false
	}
	return best, m.addressableByAllOwners(r, best)
}

// bestOtherDevice finds the highest-scoring device other than exclude that
// satisfies the region's requirements from comp and is addressable by all
// owners. Caller holds m.mu and r.mu.
func (m *Manager) bestOtherDevice(r *Region, comp, exclude string) (string, bool) {
	req := r.req
	req.Capacity = r.blockSize
	best, bestScore := "", 0.0
	for _, dev := range m.topo.Memories() {
		if dev.ID == exclude || dev.HardwareManaged {
			continue
		}
		caps, ok := m.topo.EffectiveCaps(comp, dev.ID)
		if !ok {
			continue
		}
		if !req.Matches(caps) {
			continue
		}
		if !m.addressableByAllOwners(r, dev.ID) {
			continue
		}
		s := req.Score(caps)
		if best == "" || s > bestScore {
			best, bestScore = dev.ID, s
		}
	}
	return best, best != ""
}
