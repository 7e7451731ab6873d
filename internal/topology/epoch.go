package topology

import (
	"sync"
	"time"

	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// Epoch is one virtual-time epoch: a private view of every memory device's
// service queue. The hardware graph itself (devices, links, routes, capacity
// accounting) stays shared; only *queue time* — the state that defines a
// virtual clock — lives here. Concurrent epochs therefore never interleave
// their backlogs: two jobs running in different epochs each see the device
// idle at their own t=0, exactly as if they ran on freshly drained hardware,
// while jobs sharing one epoch contend on the same FIFO queues (the
// multi-job serving case where contention is the point).
//
// Epoch replaces the old pattern of mutating the device-global queue and
// calling Topology.ResetQueues between runs, which was only safe for
// sequential submission. ResetQueues remains for the measurement-phase
// callers that still use the global queue.
//
// An Epoch is safe for concurrent use by multiple goroutines.
type Epoch struct {
	topo *Topology

	mu   sync.Mutex
	busy []time.Duration // queue drain time per memory device, by Route.Idx
}

// VClock is a virtual-time view of the memory device queues: the contract
// shared by Epoch (locked, FIFO across all callers) and TaskView (unlocked,
// private to one task in a wavefront). Placers and the region manager price
// accesses against whichever view the caller hands them.
type VClock interface {
	// Topology returns the shared hardware graph this clock runs on.
	Topology() *Topology
	// BusyUntil returns the view-local queue drain time of a memory device.
	BusyUntil(memID string) time.Duration
	// BusyAt is BusyUntil by the device's dense index (Route.Idx), for
	// callers that resolved the device ahead of time.
	BusyAt(idx int) time.Duration
	// AccessRoute prices one access over a resolved route against this
	// view's queue state and advances it: the virtual completion time of an
	// access of size bytes issued at virtual time now. Path latency both
	// ways is added to the view-local queued service time, and transfer
	// time is stretched if the path is narrower than the device.
	AccessRoute(rt *Route, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) time.Duration
	// AccessTime is AccessRoute over Route(computeID, memID), for callers
	// that hold IDs rather than a route; it fails when the pair does not
	// resolve.
	AccessTime(computeID, memID string, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error)
}

// queued is the queue arithmetic every view shares: one access over rt
// against a queue that drains at busy, returning the completion time and the
// queue's new drain time. It counts nothing; each view counts its own way.
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

// slot returns queue state long enough to hold index i. State is sized to
// the topology when a view is made; it grows only when a memory device was
// added afterwards.
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

// busyAt reads one device's drain time out of queue state; a device the
// state has not grown to yet (or no device at all, idx < 0) is idle.
func busyAt(busy []time.Duration, idx int) time.Duration {
	if idx >= 0 && idx < len(busy) {
		return busy[idx]
	}
	return 0
}

// idxOf returns a memory device's dense index, or -1 for an unknown ID.
func (t *Topology) idxOf(memID string) int {
	if i, ok := t.memIdx[memID]; ok {
		return i
	}
	return -1
}

// NewEpoch starts a fresh virtual-time epoch on this topology: every device
// queue is seen as drained at t=0.
func (t *Topology) NewEpoch() *Epoch {
	return &Epoch{topo: t, busy: make([]time.Duration, len(t.mems))}
}

// Topology returns the shared hardware graph this epoch runs on.
func (e *Epoch) Topology() *Topology { return e.topo }

// BusyUntil returns the epoch-local queue drain time of a memory device —
// the contention signal epoch-aware placers steer by.
func (e *Epoch) BusyUntil(memID string) time.Duration { return e.BusyAt(e.topo.idxOf(memID)) }

// BusyAt implements VClock.
func (e *Epoch) BusyAt(idx int) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return busyAt(e.busy, idx)
}

// AccessRoute implements VClock against this epoch's queue state. An epoch
// is shared, so it counts each access on the device as it happens.
func (e *Epoch) AccessRoute(rt *Route, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) time.Duration {
	e.mu.Lock()
	e.busy = slot(e.busy, rt.Idx)
	done, busy := rt.queued(e.busy[rt.Idx], now, size, kind, pat)
	e.busy[rt.Idx] = busy
	e.mu.Unlock()
	rt.Mem.Count(size, kind)
	return done
}

// AccessTime implements VClock.
func (e *Epoch) AccessTime(computeID, memID string, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	rt, ok := e.topo.Route(computeID, memID)
	if !ok {
		return 0, e.topo.RouteError(computeID, memID)
	}
	return e.AccessRoute(rt, now, size, kind, pat), nil
}

// View snapshots the epoch's current queue state into a TaskView. Wavefront
// source tasks seed from this; everything downstream seeds from merged
// predecessor views. The view comes from the pool that every run hands its
// seed back to (PutTaskView), so a batch does not allocate one.
func (e *Epoch) View() *TaskView {
	v := viewPool.Get().(*TaskView)
	v.topo = e.topo
	e.mu.Lock()
	v.busy = append(v.busy[:0], e.busy...)
	e.mu.Unlock()
	return v
}

// Absorb folds a finished task's queue state back into the epoch as an
// element-wise max: after a run completes, the epoch's drain times reflect
// the deepest backlog any of the run's tasks produced, so later jobs that
// share the epoch queue behind the whole run.
func (e *Epoch) Absorb(v *TaskView) {
	e.AbsorbViews(v)
}

// AbsorbViews folds several task views into the epoch under one lock
// acquisition — the bulk form of Absorb a drained wavefront uses to publish
// its whole run at once. Nil entries (tasks that never completed) are
// skipped.
func (e *Epoch) AbsorbViews(vs ...*TaskView) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range vs {
		if v != nil {
			e.busy = maxInto(e.busy, v.busy)
		}
	}
}

// TaskView is one task's causal view of the device queues inside a
// wavefront run. It seeds from the element-wise max of the task's
// predecessors' final views, so a task queues behind exactly the accesses
// that happened-before it in the DAG — never behind a sibling branch that
// merely ran earlier in wall-clock time. That independence from dispatch
// order is what keeps parallel execution byte-for-byte deterministic.
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
	// allocation, GetTaskView has nothing to size, and Clone, Merge and
	// Epoch.View, which carry queue state over, cannot carry it along. A task
	// touches a device or two and the region layer defers to five counters;
	// what does not fit is counted at once, as an epoch would.
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

// viewPool recycles TaskViews (and, most importantly, their queue state): a
// wavefront allocates one view per task, and on short serving batches the
// per-task churn was a measurable slice of the determinism tax. Views enter
// the pool through PutTaskView once their run has absorbed them and released
// every region that could price through them.
var viewPool = sync.Pool{
	New: func() any { return new(TaskView) },
}

// GetTaskView returns a pooled view initialized as a copy of src's queue
// state (same topology) with an empty ledger — PutTaskView published it —
// the pooled equivalent of src.Clone(). The caller owns the view until it
// hands it to PutTaskView.
func GetTaskView(src *TaskView) *TaskView {
	v := viewPool.Get().(*TaskView)
	v.topo = src.topo
	v.busy = append(v.busy[:0], src.busy...)
	return v
}

// PutTaskView recycles a view, publishing first whatever its ledger still
// holds. The caller must guarantee nothing can price an access through it
// anymore — in the wavefront executor that holds after finalize: the run's
// regions are released first, and every handle fails validation before its
// clock view would be consulted. Nil is a no-op, so callers can put back
// sparse view tables without filtering.
func PutTaskView(v *TaskView) {
	if v == nil {
		return
	}
	v.Publish()
	viewPool.Put(v)
}

// NewTaskView starts an empty view: every queue drained at t=0.
func (t *Topology) NewTaskView() *TaskView {
	return &TaskView{topo: t, busy: make([]time.Duration, len(t.mems))}
}

// Topology returns the shared hardware graph this view runs on.
func (v *TaskView) Topology() *Topology { return v.topo }

// BusyUntil returns the view-local queue drain time of a memory device.
func (v *TaskView) BusyUntil(memID string) time.Duration { return v.BusyAt(v.topo.idxOf(memID)) }

// BusyAt implements VClock.
func (v *TaskView) BusyAt(idx int) time.Duration { return busyAt(v.busy, idx) }

// Merge folds another view in as an element-wise max. Seeding a task's view
// is Merge over every predecessor's final view.
func (v *TaskView) Merge(o *TaskView) {
	if o != nil {
		v.busy = maxInto(v.busy, o.busy)
	}
}

// Clone returns an independent copy of the view.
func (v *TaskView) Clone() *TaskView {
	return &TaskView{topo: v.topo, busy: append([]time.Duration(nil), v.busy...)}
}

// AccessRoute implements VClock against this view's queue state, and counts
// the access in the view's ledger.
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
// path the task took there; PutTaskView calls it again as a backstop.
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

// AccessTime implements VClock.
func (v *TaskView) AccessTime(computeID, memID string, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	rt, ok := v.topo.Route(computeID, memID)
	if !ok {
		return 0, v.topo.RouteError(computeID, memID)
	}
	return v.AccessRoute(rt, now, size, kind, pat), nil
}
