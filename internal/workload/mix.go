package workload

// Mix is the traffic-shaped job sampler behind the open-loop load harness
// (internal/loadgen): production traffic is not one job repeated, it is a
// stream of mostly-small requests with a heavy tail of large ones. Sizes
// are drawn from a bounded Pareto distribution and stamped onto a rotation
// of DAG shapes (chains, fan-outs, diamonds) with declared-cost task
// bodies, plus a configurable fraction of the full Table 3 workloads
// (graph analytics, DBMS) so the stream also carries jobs with real bodies
// that move bytes through Memory Regions.
//
// A Mix is deterministic: the same seed yields the same job sequence —
// names, shapes, sizes — which is what lets a fixed-seed harness run
// reproduce its admission decisions exactly.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataflow"
)

// MixConfig tunes the traffic mix.
type MixConfig struct {
	// Seed drives every draw (shape, size, family). Same seed, same stream.
	Seed int64
	// RealFraction is the fraction of draws that build a full Table 3
	// workload (alternating scaled-down graph analytics and DBMS query
	// pipelines) instead of a declared-cost synthetic shape (default
	// 0.08). Negative disables real jobs entirely — the resulting
	// declared-cost-only stream is the one whose makespans the scheduler's
	// estimator predicts exactly (real task bodies accrue virtual time the
	// declared Props cannot express; see DESIGN.md on admission
	// estimates).
	RealFraction float64
}

// The job-size distribution is a Pareto of tail index mixAlpha, capped at
// mixMaxScale: the largest job carries mixMaxScale× the base per-task cost.
// A smaller index is a heavier tail — more of the total work rides in rare
// large jobs.
const (
	mixAlpha    = 1.6
	mixMaxScale = 64
)

// Mix is a deterministic job-stream sampler. Not safe for concurrent use;
// the load harness draws from one goroutine.
type Mix struct {
	cfg MixConfig
	rng *rand.Rand
	n   int
}

// NewMix builds a sampler; zero config fields get the defaults above.
func NewMix(cfg MixConfig) *Mix {
	switch {
	case cfg.RealFraction < 0:
		cfg.RealFraction = 0
	case cfg.RealFraction == 0:
		cfg.RealFraction = 0.08
	case cfg.RealFraction > 1:
		cfg.RealFraction = 1
	}
	return &Mix{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// pareto draws a size scale in [1, mixMaxScale] with tail index mixAlpha.
func (m *Mix) pareto() float64 {
	u := m.rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return min(math.Pow(u, -1/mixAlpha), mixMaxScale)
}

// Next draws the stream's next job. Job names are unique within the mix
// ("mix000041-fanout"), though the serving path does not require it.
func (m *Mix) Next() *dataflow.Job {
	i := m.n
	m.n++
	if m.rng.Float64() < m.cfg.RealFraction {
		// Real-body jobs ride the same heavy tail, scaled into ranges that
		// keep their wall cost in the low milliseconds.
		s := m.pareto()
		// The real generators keep their own job names ("graph", "dbms");
		// the serving path namespaces regions per submission, so repeats
		// never collide.
		if i%2 == 0 {
			v := 96 + 24*int(s)
			if v > 768 {
				v = 768
			}
			return Graph(GraphConfig{Vertices: v, AvgDegree: 4, Seed: uint64(m.cfg.Seed) + uint64(i)})
		}
		rows := 256 * int(1+s)
		if rows > 4096 {
			rows = 4096
		}
		return DBMS(DBMSConfig{Rows: rows, Groups: 32, Predicate: 3})
	}
	s := m.pareto()
	switch m.rng.Intn(3) {
	case 0:
		return m.chain(i, s)
	case 1:
		return m.fanout(i, s)
	default:
		return m.diamond(i, s)
	}
}

// chain is a linear pipeline: ingest → transform → reduce, costs scaled by
// the size draw. Nil bodies: tasks cost exactly their declared Ops and
// produce their declared output, so the job is pure virtual-time load.
func (m *Mix) chain(i int, s float64) *dataflow.Job {
	j := dataflow.NewJob(fmt.Sprintf("mix%06d-chain", i))
	depth := 3 + m.rng.Intn(3)
	prev := j.Task("t0", dataflow.Props{Ops: 1e6 * s, OutputBytes: int64(8192 * s)}, nil)
	for k := 1; k < depth; k++ {
		t := j.Task(fmt.Sprintf("t%d", k), dataflow.Props{Ops: 2e6 * s, OutputBytes: int64(4096 * s)}, nil)
		prev.Then(t)
		prev = t
	}
	return j
}

// fanout is src → N branches → sink: the wide phase stresses batching and
// the shared worker pool; width and per-branch cost both ride the draw.
func (m *Mix) fanout(i int, s float64) *dataflow.Job {
	j := dataflow.NewJob(fmt.Sprintf("mix%06d-fanout", i))
	width := 2 + int(math.Sqrt(s)*2)
	if width > 16 {
		width = 16
	}
	src := j.Task("src", dataflow.Props{Ops: 5e5 * s, OutputBytes: int64(4096 * s)}, nil)
	sink := j.Task("sink", dataflow.Props{Ops: 5e5 * s}, nil)
	for k := 0; k < width; k++ {
		b := j.Task(fmt.Sprintf("b%02d", k), dataflow.Props{Ops: 1.5e6 * s, OutputBytes: int64(2048 * s)}, nil)
		src.Then(b)
		b.Then(sink)
	}
	return j
}

// diamond is two parallel chains joining at a sink — enough structure to
// exercise rank fencing without the width of a fanout.
func (m *Mix) diamond(i int, s float64) *dataflow.Job {
	j := dataflow.NewJob(fmt.Sprintf("mix%06d-diamond", i))
	src := j.Task("src", dataflow.Props{Ops: 1e6 * s, OutputBytes: int64(8192 * s)}, nil)
	l1 := j.Task("l1", dataflow.Props{Ops: 2e6 * s, OutputBytes: int64(4096 * s)}, nil)
	l2 := j.Task("l2", dataflow.Props{Ops: 1e6 * s, OutputBytes: int64(2048 * s)}, nil)
	r1 := j.Task("r1", dataflow.Props{Ops: 3e6 * s, OutputBytes: int64(4096 * s)}, nil)
	sink := j.Task("sink", dataflow.Props{Ops: 5e5 * s}, nil)
	src.Then(l1)
	l1.Then(l2)
	l2.Then(sink)
	src.Then(r1)
	r1.Then(sink)
	return j
}
