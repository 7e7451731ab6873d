package topology

import (
	"time"
	"unsafe"

	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// TaskView is a virtual clock: a private view of every memory device's
// service queue. The hardware graph itself (devices, links, routes, capacity
// accounting) stays shared; only *queue time* lives here, and nowhere else —
// a device keeps none of its own, so every priced access names the view it
// queues on, and starting over is taking an idle view.
//
// Inside a wavefront run each task has one, seeded from the element-wise max
// of the task's predecessors' final views, so a task queues behind exactly
// the accesses that happened-before it in the DAG — never behind a sibling
// branch that merely ran earlier in wall-clock time. That independence from
// dispatch order is what keeps parallel execution byte-for-byte
// deterministic.
//
// A TaskView is also its task's access ledger. Pricing an access counts it
// here, per device, in plain integers, and the region layer defers its own
// per-access counter adds here (Defer); Publish hands the lot to the shared
// counters in one go. The wavefront publishes a task's view when the task
// retires, before anything can observe the task as done, so by the time a
// job's ticket is delivered every access of the job is in the counters —
// and no access on the way there wrote a cache line another task writes.
//
// A TaskView is NOT safe for concurrent use: it belongs to one task
// goroutine. Cross-task handoff (predecessor final view → successor seed)
// is synchronized by the wavefront dispatcher.
type TaskView struct {
	topo *Topology
	busy []time.Duration // queue drain time per memory device, by Route.Idx
	// The ledger lives in the view itself, in fixed arrays: it costs no
	// allocation, Reset has nothing to size, and what carries queue state
	// over (Reset, Merge) cannot carry it along. A task touches a device or
	// two and the region layer defers to five counters; what does not fit is
	// counted at once.
	touched  [4]deviceTally // accesses priced since the last Publish, nTouched in use
	owed     [6]owedAdd     // counter adds deferred since the last Publish, nOwed in use
	nTouched int
	nOwed    int
}

// deviceTally counts the accesses to one memory device.
type deviceTally struct {
	mem *memsim.Device
	memsim.Tally
}

// owedAdd is a deferred add of n to a shared counter.
type owedAdd struct {
	to *telemetry.Counter
	n  int64
}

// NewTaskView starts an empty view: every queue drained at t=0.
func (t *Topology) NewTaskView() *TaskView {
	t.seal()
	return &TaskView{topo: t, busy: make([]time.Duration, len(t.mems))}
}

// BusyAt returns the queue drain time of the memory device with dense index
// idx: its Route.Idx, which is also its position in Topology.Memories. A
// device the view has not grown to since a Reset to idle (or no device at
// all, idx < 0) is idle. It is the contention signal clock-aware placers steer by.
func (v *TaskView) BusyAt(idx int) time.Duration {
	if idx >= 0 && idx < len(v.busy) {
		return v.busy[idx]
	}
	return 0
}

// Reset makes v a copy of from's queue state, in place; a nil from is an
// idle machine, every queue drained at t=0. The ledger starts empty —
// whatever it still held is published first, so nothing is counted twice or
// lost — and the queue state reuses v's own storage, so a view kept for reuse
// (a job's scratch keeps one per task) allocates nothing to be seeded again.
func (v *TaskView) Reset(from *TaskView) {
	v.Publish()
	if from == nil {
		v.busy = v.busy[:0]
		return
	}
	v.topo, v.busy = from.topo, append(v.busy[:0], from.busy...)
}

// Footprint returns the bytes the view's queue state keeps allocated, for a
// holder that recycles views under a byte bound.
func (v *TaskView) Footprint() int { return cap(v.busy) * int(unsafe.Sizeof(time.Duration(0))) }

// Merge folds another view in as an element-wise max. Seeding a task's view
// is Merge over every predecessor's final view.
func (v *TaskView) Merge(o *TaskView) {
	if o != nil {
		v.busy = maxInto(v.busy, o.busy)
	}
}

// AccessRoute prices one access over a resolved route against this view's
// queue state and advances it: the virtual completion time of an access of
// size bytes issued at virtual time now. Path latency both ways is added to
// the queued service time, and transfer time is stretched if the path is
// narrower than the device. The access is counted in the view's ledger.
func (v *TaskView) AccessRoute(rt *Route, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) time.Duration {
	v.busy = slot(v.busy, rt.Idx)
	done, busy := rt.queued(v.busy[rt.Idx], now, size, kind, pat)
	v.busy[rt.Idx] = busy
	for i := range v.touched[:v.nTouched] {
		if v.touched[i].mem == rt.Mem {
			v.touched[i].Count(size, kind)
			return done
		}
	}
	if v.nTouched == len(v.touched) {
		rt.Mem.Count(size, kind)
		return done
	}
	v.touched[v.nTouched].mem = rt.Mem
	v.touched[v.nTouched].Count(size, kind)
	v.nTouched++
	return done
}

// Defer adds n to c when the view is next published instead of now: how a
// layer above counts per access without writing a shared cache line per
// access. The add happens exactly once, and happens even when n is zero.
func (v *TaskView) Defer(c *telemetry.Counter, n int64) {
	for i := range v.owed[:v.nOwed] {
		if v.owed[i].to == c {
			v.owed[i].n += n
			return
		}
	}
	if v.nOwed == len(v.owed) {
		c.Add(n)
		return
	}
	v.owed[v.nOwed] = owedAdd{c, n}
	v.nOwed++
}

// Publish adds everything the ledger holds to the shared counters — each
// device's access counts, each deferred add — and empties it, so publishing
// twice counts once. The wavefront calls it as a task retires, on whichever
// path the task took there; Reset calls it again as a backstop.
func (v *TaskView) Publish() {
	for i := range v.touched[:v.nTouched] {
		v.touched[i].mem.AddTally(v.touched[i].Tally)
		v.touched[i] = deviceTally{}
	}
	for i := range v.owed[:v.nOwed] {
		v.owed[i].to.Add(v.owed[i].n)
		v.owed[i] = owedAdd{}
	}
	v.nTouched, v.nOwed = 0, 0
}

// AccessTime is AccessRoute over Route(computeID, memID), for callers that
// hold IDs rather than a route; it fails when the pair does not resolve.
func (v *TaskView) AccessTime(computeID, memID string, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	rt, ok := v.topo.Route(computeID, memID)
	if !ok {
		return 0, v.topo.RouteError(computeID, memID)
	}
	return v.AccessRoute(rt, now, size, kind, pat), nil
}

// queued is the queue arithmetic: one access over rt against a queue that
// drains at busy, returning the completion time and the queue's new drain
// time. It counts nothing.
func (rt *Route) queued(busy, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (done, newBusy time.Duration) {
	newBusy = rt.Mem.Queued(busy, now+rt.Path.Latency, size, kind, pat)
	return newBusy + rt.stretch(size) + rt.Path.Latency, newBusy
}

// stretch is the extra transfer time when the route is the bottleneck: the
// gap between moving size bytes at path bandwidth vs device bandwidth.
func (rt *Route) stretch(size int64) time.Duration {
	if size <= 0 || rt.Path.Bandwidth >= rt.Mem.Bandwidth {
		return 0
	}
	extra := time.Duration(float64(size)/rt.Path.Bandwidth*float64(time.Second)) -
		time.Duration(float64(size)/rt.Mem.Bandwidth*float64(time.Second))
	if extra < 0 {
		return 0
	}
	return extra
}

// slot returns queue state long enough to hold index i, every index it adds
// idle. State is sized to the topology when a view is made; it grows only
// into its own capacity after a Reset to idle.
func slot(busy []time.Duration, i int) []time.Duration {
	for len(busy) <= i {
		busy = append(busy, 0)
	}
	return busy
}

// maxInto folds src into dst as an element-wise max and returns dst, grown
// if src is longer.
func maxInto(dst, src []time.Duration) []time.Duration {
	dst = slot(dst, len(src)-1)
	for i, t := range src {
		if t > dst[i] {
			dst[i] = t
		}
	}
	return dst
}
