package region

import (
	"fmt"
	"math"
	"sort"
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
	// HighWatermark triggers demotion when a device's utilization exceeds
	// it. Default 0.90.
	HighWatermark float64
	// LowWatermark is the demotion target. Default 0.70.
	LowWatermark float64
	// PromoteHeat is the minimum epoch access count for promotion
	// candidates. Default 8.
	PromoteHeat uint64
	// ScoreMargin is how much better (in props.Score units) a destination
	// must be to justify moving a hot region. Default 2.
	ScoreMargin float64
	// EvictWatermark triggers the cross-node eviction pass: when a device's
	// utilization still exceeds it after local demotion and the manager has
	// an Exporter, the sweep exports the device's coldest regions to the
	// remote pool until utilization falls to min(LowWatermark,
	// EvictWatermark). Zero disables eviction (the default) — regions then
	// never leave the node.
	EvictWatermark float64
	// EvictHeat is the maximum epoch access count an eviction victim may
	// have: hotter regions stay local no matter the pressure. Default 1.
	EvictHeat uint64
}

func (p RebalancePolicy) withDefaults() RebalancePolicy {
	if p.HighWatermark <= 0 {
		p.HighWatermark = 0.90
	}
	if p.LowWatermark <= 0 {
		p.LowWatermark = 0.70
	}
	if p.PromoteHeat == 0 {
		p.PromoteHeat = 8
	}
	if p.ScoreMargin == 0 {
		p.ScoreMargin = 2
	}
	if p.EvictHeat == 0 {
		p.EvictHeat = 1
	}
	return p
}

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
// a region's owners. Caller holds m.mu.
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
// reach dev within the region's requirements. Caller holds m.mu.
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

// Rebalance runs one tiering epoch at virtual time now and halves every
// region's heat afterwards (exponential decay). Migrations are priced
// against the shared global device queues, so it must not run while epochs
// are serving; use RebalanceIn for a sweep concurrent with serving.
func (m *Manager) Rebalance(now time.Duration, pol RebalancePolicy) (RebalanceStats, error) {
	return m.RebalanceIn(nil, now, pol)
}

// RebalanceIn is Rebalance with the migrations priced through clk — an
// epoch or task view (topology.VClock) — instead of the global device
// queues. A maintenance sweep handed its own private epoch runs fully
// inside that epoch's virtual clock, leaving the global queues untouched,
// which is what makes the sweep safe to execute concurrently with serving:
// serving batches price their work in their own epochs and never observe
// the sweep's backlog. A nil clk restores the global-queue behavior.
func (m *Manager) RebalanceIn(clk topology.VClock, now time.Duration, pol RebalancePolicy) (RebalanceStats, error) {
	pol = pol.withDefaults()
	m.mu.Lock()
	defer m.mu.Unlock()
	var stats RebalanceStats
	// The sweep holds the manager lock throughout, so no region is placed,
	// moved, shared or freed under it; it takes a region's own lock only
	// while it works on that region, and accesses to every other region run
	// beside it. moved books one migration of r that completed at done.
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
		if dev.HardwareManaged || dev.Utilization() <= pol.HighWatermark {
			continue
		}
		for _, r := range m.coldestOn(dev, math.MaxUint64, nil) {
			if dev.Utilization() <= pol.LowWatermark {
				break
			}
			comp := ownerCompute(r)
			dst, ok := m.bestOtherDevice(r, comp, dev.ID)
			if !ok {
				continue
			}
			r.mu.Lock()
			done, err := m.migrateToLocked(r, comp, dst, now, clk)
			r.mu.Unlock()
			if err == nil { // best-effort: skip unmovable regions
				moved(r, &stats.Demoted, done)
			}
		}
	}

	// Deterministic region order for the remaining passes: by id.
	ids := make([]ID, 0, len(m.regions))
	for id := range m.regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Pass 2 — promotion: hot regions move when a clearly better device
	// has room. An exported region that ran hot is recalled home instead —
	// the sweep-driven counterpart of fetch-on-read, paying the fabric
	// verbs on the sweep's clock.
	for _, id := range ids {
		r := m.regions[id]
		r.mu.Lock()
		if r.heat < pol.PromoteHeat {
			r.mu.Unlock()
			continue
		}
		if r.exported {
			if cost, err := m.recallLocked(r); err == nil {
				stats.Recalled++
				stats.BytesRecalled += r.size
				stats.Cost += cost
			}
		} else if best, ok := m.promotionTarget(r, pol.ScoreMargin); ok {
			if done, err := m.migrateToLocked(r, ownerCompute(r), best, now, clk); err == nil {
				moved(r, &stats.Promoted, done)
			}
		}
		r.mu.Unlock()
	}

	// Pass 3 — eviction: a device still over the eviction watermark after
	// local demotion has run out of local tiers for its cold set; export
	// the coldest regions to the remote pool. Only regions at or below
	// EvictHeat leave — the sweep never exports the working set.
	if pol.EvictWatermark > 0 && m.exporter != nil {
		target := pol.LowWatermark
		if pol.EvictWatermark < target {
			target = pol.EvictWatermark
		}
		for _, dev := range m.topo.Memories() {
			if dev.HardwareManaged || dev.Utilization() <= pol.EvictWatermark {
				continue
			}
			for _, r := range m.coldestOn(dev, pol.EvictHeat, nil) {
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
	for _, id := range ids {
		r := m.regions[id]
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
// the current one by at least margin, and every owner can address it. Caller
// holds m.mu.
func (m *Manager) promotionTarget(r *Region, margin float64) (string, bool) {
	comp := ownerCompute(r)
	curCaps, ok := m.topo.EffectiveCaps(comp, r.device.ID)
	if !ok {
		return "", false
	}
	req := r.req
	req.Capacity = r.blockSize
	best, err := m.placer.Place(req, comp)
	if err != nil || best == r.device.ID {
		return "", false
	}
	bestCaps, ok := m.topo.EffectiveCaps(comp, best)
	if !ok {
		return "", false
	}
	req.Capacity = 0
	if req.Score(bestCaps)-req.Score(curCaps) < margin {
		return "", false
	}
	return best, m.addressableByAllOwners(r, best)
}

// bestOtherDevice finds the highest-scoring device other than exclude that
// satisfies the region's requirements from comp and is addressable by all
// owners. Caller holds m.mu.
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

// Heat returns a region's current epoch access count (tests, reports).
func (m *Manager) Heat(id ID) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.regions[id]
	if !ok {
		return 0, fmt.Errorf("%w: region %d", ErrFreed, id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heat, nil
}
