// Package placement implements the runtime's data-placement optimizer —
// the component that answers §2.2's challenge (1): the "optimal" memory
// device depends on the compute device executing the task and on the type
// of accesses it performs. Requirements act as hard filters; among the
// matching devices, a cost model built on topology-adjusted capabilities
// picks the best one.
//
// The package also ships the baselines a cost model must beat: the naive
// first match, a seeded random pick and an adversarial worst fit. The
// claim-placement artifact contrasts worst-fit with the optimizer. All four
// policies are selection rules over one candidate pass (candidates), and each
// decision is a pure function of the graph, the request, the devices' free
// capacity and, for the optimizer, the requester's clock.
package placement

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/topology"
)

// ErrNoCandidate is returned when no device passes the hard constraints.
var ErrNoCandidate = errors.New("placement: no device satisfies the request")

// candidates is the one candidate pass every policy shares. Everything a
// decision computes per device except free capacity and queue backlog is
// fixed by (compute device, requirements without Capacity, graph), and a
// graph does not change once read, so it is resolved once per such shape
// into a list; a placement is one pass over that list. Safe for concurrent
// callers.
type candidates struct {
	topo *topology.Topology

	// mu guards shapes: a placement that finds its list takes it shared, and
	// only storing a newly resolved list takes it exclusively.
	mu sync.RWMutex
	// shapes holds the candidate list of every request shape resolved so far.
	// Lists are immutable once stored. Emptied when maxShapes is reached.
	shapes map[shape][]candidate
}

// shape is what a candidate list is a pure function of, besides the graph:
// the requesting compute device and the requirements with Capacity zeroed
// (free capacity is the one capability that moves between placements, and
// Score does not read it).
type shape struct {
	compute string
	req     props.Requirements
}

// candidate is one device that passes a shape's static hard constraints, with
// the score it earns before any per-call penalty.
type candidate struct {
	dev   *memsim.Device
	idx   int // dev's dense index: its slot in a TaskView's queue state
	score float64
}

// fits is the per-call hard constraint the list leaves out: room for the
// request on the device now.
func (c candidate) fits(req props.Requirements) bool {
	return req.Capacity <= 0 || c.dev.Free() >= req.Capacity
}

// maxShapes bounds the candidate cache. Serving traffic has a handful of
// shapes per compute device; the bound only keeps arbitrary requirement
// values (a MinBandwidth computed per request, say) from growing it forever.
// Reaching it drops every list: they are cheap to resolve again.
const maxShapes = 1024

// of returns the devices a request from computeID may be placed on if they
// have room, in device order, resolving the list of its shape on first use.
func (cs *candidates) of(req props.Requirements, computeID string) []candidate {
	req.Capacity = 0
	sh := shape{compute: computeID, req: req}
	cs.mu.RLock()
	list, ok := cs.shapes[sh]
	cs.mu.RUnlock()
	if ok {
		return list
	}
	list = nil // a shape nothing fits resolves to an empty list, and is kept too
	for i, dev := range cs.topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		caps, ok := cs.topo.EffectiveCaps(computeID, dev.ID)
		if !ok || !req.Matches(caps) {
			continue
		}
		list = append(list, candidate{dev: dev, idx: i, score: req.Score(caps)})
	}
	cs.mu.Lock()
	if len(cs.shapes) >= maxShapes {
		clear(cs.shapes)
	}
	if cs.shapes == nil {
		cs.shapes = make(map[shape][]candidate)
	}
	cs.shapes[sh] = list
	cs.mu.Unlock()
	return list
}

// noCandidate is every policy's refusal.
func noCandidate(req props.Requirements, computeID string) error {
	return fmt.Errorf("%w: %s from %s", ErrNoCandidate, req, computeID)
}

// BestFit is the cost-model optimizer: among devices whose topology-adjusted
// capabilities match the request's hard constraints, pick the one maximizing
// props.Score (low latency, high bandwidth, confidentiality locality, and
// premium-capacity conservation). Deterministic: ties break on device order.
type BestFit struct{ candidates }

// NewBestFit builds the optimizer.
func NewBestFit(topo *topology.Topology) *BestFit {
	return &BestFit{candidates{topo: topo}}
}

// Name implements region.Placer.
func (b *BestFit) Name() string { return "best-fit" }

// PlaceEpoch implements region.Placer: with a clock, the request's virtual
// time lets the optimizer see how far each device's service queue is backed
// up *right now* in the requester's own view (a wavefront task's causal
// view) and steer hot allocations away from contended devices — the
// utilization awareness §3's challenges 1-3 require of the RTS — while
// concurrently running tasks steer by their own contention instead of each
// other's. Without one (clk nil) it is blind to backlog.
func (b *BestFit) PlaceEpoch(req props.Requirements, computeID string, now time.Duration, clk *topology.TaskView) (string, error) {
	best, bestScore := "", 0.0
	for _, c := range b.of(req, computeID) {
		if !c.fits(req) {
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
		return "", noCandidate(req, computeID)
	}
	return best, nil
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

// PlaceShared finds the best device addressable — and matching — from
// *every* listed compute device (§2.2 challenge (2): shared memory must be
// addressable by all sharing tasks). The score is the worst-case score
// across the computes, so no sharer is starved.
func (b *BestFit) PlaceShared(req props.Requirements, computeIDs []string) (string, error) {
	if len(computeIDs) == 0 {
		return "", fmt.Errorf("%w: no compute devices given", ErrNoCandidate)
	}
	best, bestScore := "", 0.0
	for _, dev := range b.topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		worst := 0.0
		ok := true
		for i, c := range computeIDs {
			caps, reachable := b.topo.EffectiveCaps(c, dev.ID)
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
// cost model must beat. A pick is a pure function of the seed, the compute
// device, the request and its virtual time: their FNV-64a hash indexes the
// candidates with room, sorted by ID — so a run picks the same devices
// whatever order its placements are asked in.
type Random struct {
	candidates
	seed int64
}

// NewRandom builds the baseline.
func NewRandom(topo *topology.Topology, seed int64) *Random {
	return &Random{candidates: candidates{topo: topo}, seed: seed}
}

// Name implements region.Placer.
func (r *Random) Name() string { return "random" }

// PlaceEpoch implements region.Placer; the clock is not read.
func (r *Random) PlaceEpoch(req props.Requirements, computeID string, now time.Duration, _ *topology.TaskView) (string, error) {
	var ids []string
	for _, c := range r.of(req, computeID) {
		if c.fits(req) {
			ids = append(ids, c.dev.ID)
		}
	}
	if len(ids) == 0 {
		return "", noCandidate(req, computeID)
	}
	slices.Sort(ids)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%#v\x00%d", r.seed, computeID, req, now)
	return ids[h.Sum64()%uint64(len(ids))], nil
}

// Worst inverts the optimizer: among matching devices it picks the lowest
// score (ties break on device order). It bounds how bad "legal but
// thoughtless" placement can get — the ~3× penalty the intro cites from
// Mosaic [59].
type Worst struct{ candidates }

// NewWorst builds the adversarial baseline.
func NewWorst(topo *topology.Topology) *Worst { return &Worst{candidates{topo: topo}} }

// Name implements region.Placer.
func (w *Worst) Name() string { return "worst-fit" }

// PlaceEpoch implements region.Placer; the clock is not read.
func (w *Worst) PlaceEpoch(req props.Requirements, computeID string, _ time.Duration, _ *topology.TaskView) (string, error) {
	worst, worstScore := "", 0.0
	for _, c := range w.of(req, computeID) {
		if c.fits(req) && (worst == "" || c.score < worstScore) {
			worst, worstScore = c.dev.ID, c.score
		}
	}
	if worst == "" {
		return "", noCandidate(req, computeID)
	}
	return worst, nil
}

// FirstFit is the naive placement baseline the paper's intro warns about:
// the first device in topology order that matches the hard constraints,
// whatever its latency and bandwidth.
type FirstFit struct{ candidates }

// NewFirstFit builds the naive baseline.
func NewFirstFit(topo *topology.Topology) *FirstFit { return &FirstFit{candidates{topo: topo}} }

// Name implements region.Placer.
func (f *FirstFit) Name() string { return "first-fit" }

// PlaceEpoch implements region.Placer; the clock is not read.
func (f *FirstFit) PlaceEpoch(req props.Requirements, computeID string, _ time.Duration, _ *topology.TaskView) (string, error) {
	for _, c := range f.of(req, computeID) {
		if c.fits(req) {
			return c.dev.ID, nil
		}
	}
	return "", noCandidate(req, computeID)
}
