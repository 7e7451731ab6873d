// Package placement implements the runtime's data-placement optimizer —
// the component that answers §2.2's challenge (1): the "optimal" memory
// device depends on the compute device executing the task and on the type
// of accesses it performs. Requirements act as hard filters; among the
// matching devices, a cost model built on topology-adjusted capabilities
// picks the best one.
//
// The package also ships baselines a cost model must beat: a seeded random
// policy and an adversarial worst-fit one (region.FirstFit is the naive
// first-match policy). The claim-placement artifact contrasts worst-fit with
// the optimizer.
package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/topology"
)

// ErrNoCandidate is returned when no device passes the hard constraints.
var ErrNoCandidate = errors.New("placement: no device satisfies the request")

// BestFit is the cost-model optimizer: among devices whose topology-adjusted
// capabilities match the request's hard constraints, pick the one maximizing
// props.Score (low latency, high bandwidth, confidentiality locality, and
// premium-capacity conservation). Deterministic: ties break on device order.
// Safe for concurrent callers.
//
// Everything that decision computes per device except free capacity and
// queue backlog is fixed by (compute device, requirements without Capacity,
// graph), so it is resolved once per such shape into a candidate list; a
// placement is one pass over that list.
type BestFit struct {
	Topo *topology.Topology

	// mu guards shapes and shapesAt: a placement that finds its list takes it
	// shared, and only storing a newly resolved list takes it exclusively.
	mu sync.RWMutex
	// shapes holds the candidate list of every request shape resolved on
	// graph version shapesAt. Lists are immutable once stored. Resolved on
	// first use, emptied when the graph changes or maxShapes is reached.
	shapes   map[shape][]candidate
	shapesAt uint64
}

// shape is what a candidate list is a pure function of, besides the graph:
// the requesting compute device and the requirements with Capacity zeroed
// (free capacity is the one capability that moves between placements).
type shape struct {
	compute string
	req     props.Requirements
}

// candidate is one device that passes a shape's static hard constraints, with
// the score it earns before the per-call backlog penalty.
type candidate struct {
	dev   *memsim.Device
	idx   int // dev's dense index: its slot in a VClock's queue state
	score float64
}

// maxShapes bounds the candidate cache. Serving traffic has a handful of
// shapes per compute device; the bound only keeps arbitrary requirement
// values (a MinBandwidth computed per request, say) from growing it forever.
// Reaching it drops every list: they are cheap to resolve again.
const maxShapes = 1024

// candidates returns the devices a request of this shape may be placed on,
// in device order, resolving the list on first use.
func (b *BestFit) candidates(sh shape) []candidate {
	sh.req.Capacity = 0
	at := b.Topo.Version()
	b.mu.RLock()
	list, ok := b.shapes[sh]
	ok = ok && b.shapesAt == at
	b.mu.RUnlock()
	if ok {
		return list
	}
	list = nil // a shape nothing fits resolves to an empty list, and is kept too
	for i, dev := range b.Topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		caps, ok := b.Topo.EffectiveCaps(sh.compute, dev.ID)
		if !ok || !sh.req.Matches(caps) {
			continue
		}
		list = append(list, candidate{dev: dev, idx: i, score: sh.req.Score(caps)})
	}
	b.mu.Lock()
	if b.shapesAt != at || len(b.shapes) >= maxShapes {
		clear(b.shapes)
		b.shapesAt = at
	}
	if b.shapes == nil {
		b.shapes = make(map[shape][]candidate)
	}
	b.shapes[sh] = list
	b.mu.Unlock()
	return list
}

// NewBestFit builds the optimizer.
func NewBestFit(topo *topology.Topology) *BestFit {
	return &BestFit{Topo: topo}
}

// Name implements region.Placer.
func (b *BestFit) Name() string { return "best-fit" }

// Place implements region.Placer: the best match by score alone, blind to
// any queue backlog.
func (b *BestFit) Place(req props.Requirements, computeID string) (string, error) {
	return b.placeAt(req, computeID, 0, nil)
}

// PlaceEpoch implements region.PlacerEpoch: the request's virtual time and
// clock let the optimizer see how far each device's service queue is backed
// up *right now* in the requester's own view (a shared epoch or a wavefront
// task's causal view) and steer hot allocations away from contended devices
// — the utilization awareness §3's challenges 1-3 require of the RTS — while
// concurrently running tasks steer by their own contention instead of each
// other's.
func (b *BestFit) PlaceEpoch(req props.Requirements, computeID string, now time.Duration, clk topology.VClock) (string, error) {
	return b.placeAt(req, computeID, now, clk)
}

// backlogPenalty converts a device's queue backlog (relative to the
// requester's clock) into score points: one point per 100µs of backlog,
// capped at 8 so hard constraints and large latency-class gaps still win.
func backlogPenalty(busyUntil, now time.Duration) float64 {
	backlog := busyUntil - now
	if backlog <= 0 {
		return 0
	}
	p := float64(backlog) / float64(100*time.Microsecond)
	if p > 8 {
		p = 8
	}
	return p
}

// placeAt picks the best-scoring candidate with room for the request; with a
// clock, each candidate first loses the penalty for its backlog in that
// clock.
func (b *BestFit) placeAt(req props.Requirements, computeID string, now time.Duration, clk topology.VClock) (string, error) {
	best, bestScore := "", 0.0
	for _, c := range b.candidates(shape{compute: computeID, req: req}) {
		if req.Capacity > 0 && c.dev.Free() < req.Capacity {
			continue
		}
		s := c.score
		if clk != nil {
			s -= backlogPenalty(clk.BusyAt(c.idx), now)
		}
		if best == "" || s > bestScore {
			best, bestScore = c.dev.ID, s
		}
	}
	if best == "" {
		return "", fmt.Errorf("%w: %s from %s", ErrNoCandidate, req, computeID)
	}
	return best, nil
}

// PlaceShared finds the best device addressable — and matching — from
// *every* listed compute device (§2.2 challenge (2): shared memory must be
// addressable by all sharing tasks). The score is the worst-case score
// across the computes, so no sharer is starved.
func (b *BestFit) PlaceShared(req props.Requirements, computeIDs []string) (string, error) {
	if len(computeIDs) == 0 {
		return "", fmt.Errorf("%w: no compute devices given", ErrNoCandidate)
	}
	best, bestScore := "", 0.0
	for _, dev := range b.Topo.MemoryDevices() {
		if dev.HardwareManaged {
			continue
		}
		worst := 0.0
		ok := true
		for i, c := range computeIDs {
			caps, reachable := b.Topo.EffectiveCaps(c, dev.ID)
			if !reachable {
				ok = false
				break
			}
			if !req.Matches(caps) {
				ok = false
				break
			}
			s := req.Score(caps)
			if i == 0 || s < worst {
				worst = s
			}
		}
		if !ok {
			continue
		}
		if best == "" || worst > bestScore {
			best, bestScore = dev.ID, worst
		}
	}
	if best == "" {
		return "", fmt.Errorf("%w: %s from %v", ErrNoCandidate, req, computeIDs)
	}
	return best, nil
}

// Random places uniformly among matching devices — the lower bound any
// cost model must beat. Seeded for reproducibility.
type Random struct {
	Topo *topology.Topology

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom builds the baseline.
func NewRandom(topo *topology.Topology, seed int64) *Random {
	return &Random{Topo: topo, rng: rand.New(rand.NewSource(seed))}
}

// Name implements region.Placer.
func (r *Random) Name() string { return "random" }

// Place implements region.Placer.
func (r *Random) Place(req props.Requirements, computeID string) (string, error) {
	var candidates []string
	for _, dev := range r.Topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		caps, ok := r.Topo.EffectiveCaps(computeID, dev.ID)
		if !ok {
			continue
		}
		if req.Matches(caps) {
			candidates = append(candidates, dev.ID)
		}
	}
	if len(candidates) == 0 {
		return "", fmt.Errorf("%w: %s from %s", ErrNoCandidate, req, computeID)
	}
	sort.Strings(candidates)
	r.mu.Lock()
	pick := candidates[r.rng.Intn(len(candidates))]
	r.mu.Unlock()
	return pick, nil
}

// Worst inverts the optimizer: among matching devices it picks the lowest
// score. It bounds how bad "legal but thoughtless" placement can get — the
// ~3× penalty the intro cites from Mosaic [59].
type Worst struct {
	Topo *topology.Topology
}

// NewWorst builds the adversarial baseline.
func NewWorst(topo *topology.Topology) *Worst { return &Worst{Topo: topo} }

// Name implements region.Placer.
func (w *Worst) Name() string { return "worst-fit" }

// Place implements region.Placer.
func (w *Worst) Place(req props.Requirements, computeID string) (string, error) {
	best, bestScore, found := "", 0.0, false
	for _, dev := range w.Topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		caps, ok := w.Topo.EffectiveCaps(computeID, dev.ID)
		if !ok {
			continue
		}
		if !req.Matches(caps) {
			continue
		}
		s := req.Score(caps)
		if !found || s < bestScore {
			best, bestScore, found = dev.ID, s, true
		}
	}
	if !found {
		return "", fmt.Errorf("%w: %s from %s", ErrNoCandidate, req, computeID)
	}
	return best, nil
}
