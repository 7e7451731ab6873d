package core

import (
	"time"
	"unsafe"

	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// scratch is the part of a job's engine state that nothing outside the engine
// can reach once the job has settled: the dispatcher with its rank- and
// device-indexed tables, the task contexts, the tasks' clock views, the run's
// handle and core tables, and what computePeak sweeps with. newRun takes one
// from the runtime's free list, it serves every attempt of the job — which is
// how a retry continues on the failed attempt's core clocks — and drive puts
// it back when the job settles, so a served job finds its tables where the job
// before it left them.
//
// What a submitter or a handle a task body kept can still reach is not here:
// the run (a kept handle's fence), the task reports and the Report with its
// slices stay the run's own and go to the collector with it. A context is
// valid only while its body runs (dataflow.Ctx), and a kept handle fences on
// the run and carries its own rank, so no handle reaches a context. A kept
// handle's clock is one of the views, but it was released with the run, and a
// released handle fails before its clock is consulted.
type scratch struct {
	w wavefront
	// ctxs is the task context slot block, by rank (run.ctxs): sized once,
	// grown only by a wider job, and reset slot by slot as each task launches
	// (taskCtx.reset), so a slot keeps its slices' storage from job to job.
	ctxs []taskCtx
	// views holds the attempt's clock views: views[k] is rank k's, seeded when
	// the task launches (wavefront.seedView). Each keeps its queue state's
	// storage from job to job: the table is resliced, not zeroed, and every
	// view is reset before use.
	views    []topology.TaskView
	handles  []*region.Handle // run.handles
	cores    []time.Duration  // run.cores, when the run's table is private
	computes []string         // run.scheduledComputes
	globals  []jobGlobal      // run.globals, empty between attempts
	lazy     []lazyRestore    // run.lazy, zeroed by each attempt that uses it
	// executed counts, by rank, the submission's executions of each task the
	// injector has stepped: newRun zeroes it and every attempt of the job
	// carries it on, so a site's kills are spent once per submission.
	executed []int
	// spans is where cleanup gathers the attempt's task spans for the
	// registry, empty between attempts.
	spans []telemetry.Span
	// computePeak's event list, the IDs of the regions the run allocated,
	// sorted, and its table of them by their place there, and each device's
	// bytes now and at its peak, by dense index.
	events []memEvent
	ids    []region.ID
	live   []liveRegion
	cur    []int64
	peak   []int64
}

// The runtime's free list (allocator.FreeList) is bounded twice, like the
// region manager's backing list (backingFreeBytes): in entries by
// scratchFreeMax, the most jobs a server of the default shape has in flight at
// once (4 epoch workers × 8 a batch; a retry continues on its job's scratch),
// and in bytes by scratchFreeBytes, the sum of the entries' footprints. A
// scratch that would take the list past either is left to the collector, so a
// burst of wide, dense or allocation-heavy jobs pins at most scratchFreeBytes
// for the runtime's life, and a job whose tables alone exceed it pins nothing.
const (
	scratchFreeMax   = 32
	scratchFreeBytes = 4 << 20
)

// footprint is what the scratch's tables keep reachable, in bytes: every
// slice's capacity, each context slot and the storage its slices kept, and
// each view's queue state.
func (sc *scratch) footprint() int64 {
	const word = int(unsafe.Sizeof(uintptr(0)))
	w := &sc.w
	n := cap(sc.handles)*word + cap(sc.cores)*word + cap(sc.computes)*2*word +
		cap(sc.events)*int(unsafe.Sizeof(memEvent{})) + cap(sc.ids)*int(unsafe.Sizeof(region.ID(0))) +
		cap(sc.live)*int(unsafe.Sizeof(liveRegion{})) +
		cap(sc.executed)*word + cap(sc.spans)*int(unsafe.Sizeof(telemetry.Span{})) +
		(cap(sc.cur)+cap(sc.peak))*word +
		cap(sc.globals)*int(unsafe.Sizeof(jobGlobal{})) + cap(sc.lazy)*int(unsafe.Sizeof(lazyRestore{})) +
		cap(sc.views)*int(unsafe.Sizeof(topology.TaskView{})) +
		cap(w.slots)*int(unsafe.Sizeof(slot{})) + cap(w.ready) +
		(cap(w.readyAt)+cap(w.queue)+cap(w.baseCores))*word
	ctxs := sc.ctxs[:cap(sc.ctxs)]
	for k := range ctxs {
		n += ctxs[k].footprint()
	}
	views := sc.views[:cap(sc.views)]
	for k := range views {
		n += views[k].Footprint()
	}
	for d := range w.devs {
		n += w.devs[d].Footprint()
	}
	return int64(n)
}

// taskCtxs returns the slot block with a slot for each of n tasks. A block too
// small is replaced, not grown: a slot's slices may point into its own inline
// arrays, so slots are never copied.
func (sc *scratch) taskCtxs(n int) []taskCtx {
	if cap(sc.ctxs) < n {
		sc.ctxs = make([]taskCtx, n)
	}
	sc.ctxs = sc.ctxs[:n]
	return sc.ctxs
}

// putScratch gives a settled job's scratch back. The caller has finalized the
// job's last wavefront: every handle the tables held was released and every
// view published, and no goroutine of the job is left to read them.
func (rt *Runtime) putScratch(sc *scratch) {
	// Drop what the tables still point to, so the list pins no job's memory.
	clear(sc.handles)
	// The slots past the job's were reset when an earlier job put them back.
	for k := range sc.ctxs {
		sc.ctxs[k].reset()
	}
	sc.w.r, sc.w.pool, sc.w.ctx = nil, nil, nil
	sc.w.failErr, sc.w.canceled = nil, nil
	rt.free.Put(sc)
}

// sized returns s with length n and every element zero, in place when s has
// the room.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
