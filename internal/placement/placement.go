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
	"strings"
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
// the requesting compute device, by index, and the requirements with Capacity
// zeroed (free capacity is the one capability that moves between placements,
// and Score does not read it).
type shape struct {
	compute int
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

// of returns the devices a request from compute device c may be placed on if
// they have room, in device order, resolving the list of its shape on first
// use.
func (cs *candidates) of(req props.Requirements, c *topology.ComputeDevice) []candidate {
	req.Capacity = 0
	sh := shape{compute: c.Index(), req: req}
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
		rt, ok := cs.topo.ComputeSet().Route(c.Index(), i)
		if !ok {
			continue
		}
		caps := rt.Caps()
		if !req.Matches(caps) {
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

// byID is place called by compute device ID and answering with the memory
// device's ID. An unknown compute device reaches no device.
func (cs *candidates) byID(req props.Requirements, computeID string, place func(*topology.ComputeDevice) (int, error)) (string, error) {
	mems := cs.topo.Memories()
	c, ok := cs.topo.Compute(computeID)
	if !ok {
		return "", noCandidate(req, computeID)
	}
	i, err := place(c)
	if err != nil {
		return "", err
	}
	return mems[i].ID, nil
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

// PlaceEpoch is Place by device ID, for callers that name devices: the paper
// figures and the benchmark's layer replay.
func (b *BestFit) PlaceEpoch(req props.Requirements, computeID string, now time.Duration, clk *topology.TaskView) (string, error) {
	return b.byID(req, computeID, func(c *topology.ComputeDevice) (int, error) { return b.Place(req, c, now, clk) })
}

// Place implements region.Placer: with a clock, the request's virtual time
// lets the optimizer see how far each device's service queue is backed up
// *right now* in the requester's own view (a wavefront task's causal view)
// and steer hot allocations away from contended devices — the utilization
// awareness §3's challenges 1-3 require of the RTS — while concurrently
// running tasks steer by their own contention instead of each other's.
// Without one (clk nil) it is blind to backlog.
func (b *BestFit) Place(req props.Requirements, c *topology.ComputeDevice, now time.Duration, clk *topology.TaskView) (int, error) {
	best, bestScore := -1, 0.0
	for _, cd := range b.of(req, c) {
		if !cd.fits(req) {
			continue
		}
		s := cd.score
		if clk != nil {
			s -= backlogPenalty(clk.BusyAt(cd.idx), now)
		}
		if best < 0 || s > bestScore {
			best, bestScore = cd.idx, s
		}
	}
	if best < 0 {
		return -1, noCandidate(req, c.ID)
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

// Place implements region.Placer; the clock is not read.
func (r *Random) Place(req props.Requirements, c *topology.ComputeDevice, now time.Duration, _ *topology.TaskView) (int, error) {
	var fit []candidate
	for _, cd := range r.of(req, c) {
		if cd.fits(req) {
			fit = append(fit, cd)
		}
	}
	if len(fit) == 0 {
		return -1, noCandidate(req, c.ID)
	}
	slices.SortFunc(fit, func(a, b candidate) int { return strings.Compare(a.dev.ID, b.dev.ID) })
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%#v\x00%d", r.seed, c.ID, req, now)
	return fit[h.Sum64()%uint64(len(fit))].idx, nil
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

// Place implements region.Placer; the clock is not read.
func (w *Worst) Place(req props.Requirements, c *topology.ComputeDevice, _ time.Duration, _ *topology.TaskView) (int, error) {
	worst, worstScore := -1, 0.0
	for _, cd := range w.of(req, c) {
		if cd.fits(req) && (worst < 0 || cd.score < worstScore) {
			worst, worstScore = cd.idx, cd.score
		}
	}
	if worst < 0 {
		return -1, noCandidate(req, c.ID)
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

// Place implements region.Placer; the clock is not read.
func (f *FirstFit) Place(req props.Requirements, c *topology.ComputeDevice, _ time.Duration, _ *topology.TaskView) (int, error) {
	for _, cd := range f.of(req, c) {
		if cd.fits(req) {
			return cd.idx, nil
		}
	}
	return -1, noCandidate(req, c.ID)
}
