package core

import (
	"time"
	"unsafe"

	"repro/internal/region"
)

// scratch is the part of a job's engine state that nothing outside the engine
// can reach once the job has settled: the dispatcher with its rank- and
// device-indexed tables, the run's handle and core tables, and what
// computePeak sweeps with. newRun takes one from the runtime's free list, it
// serves every attempt of the job — which is how a retry continues on the
// failed attempt's core clocks — and drive puts it back when the job settles,
// so a served job finds its tables where the job before it left them.
//
// What a submitter or a handle a task body kept can still reach is not here:
// the task contexts (a kept handle's fence), the task reports and the Report
// with its maps stay the run's own and go to the collector with it.
type scratch struct {
	w       wavefront
	handles []*region.Handle // run.handles
	cores   []time.Duration  // run.cores, when the run's table is private
	// computePeak's event list and its two maps.
	events []memEvent
	live   map[region.ID]liveRegion
	cur    map[string]int64
	// kept is the footprint the free list counted this scratch at.
	kept int64
}

// The runtime's free list is bounded twice, like the region manager's backing
// list (backingFreeBytes): in entries by scratchFreeMax, the most jobs a server
// of the default shape has in flight at once (4 epoch workers × 8 a batch; a
// retry continues on its job's scratch), and in bytes by scratchFreeBytes, the
// sum of the entries' footprints. A scratch that would take the list past
// either is left to the collector, so a burst of wide, dense or
// allocation-heavy jobs pins at most scratchFreeBytes for the runtime's life,
// and a job whose tables alone exceed it pins nothing.
const (
	scratchFreeMax   = 32
	scratchFreeBytes = 4 << 20
)

// footprint is what the scratch's tables keep reachable, in bytes: every
// slice's capacity, and for computePeak's live map an entry per event slot —
// the map held at most as many regions at once as the sweep had events, and
// events only grows. cur is keyed by device and so bounded by the topology;
// it is not counted.
func (sc *scratch) footprint() int64 {
	const (
		word      = int(unsafe.Sizeof(uintptr(0)))
		eventSlot = int(unsafe.Sizeof(memEvent{}) + unsafe.Sizeof(region.ID(0)) + unsafe.Sizeof(liveRegion{}))
	)
	w := &sc.w
	n := cap(sc.handles)*word + cap(sc.cores)*word + cap(sc.events)*eventSlot +
		cap(w.slots)*int(unsafe.Sizeof(slot{})) + cap(w.ready) +
		(cap(w.readyAt)+cap(w.queue)+cap(w.baseCores))*word
	for d := range w.devs {
		n += w.devs[d].Footprint()
	}
	return int64(n)
}

// getScratch returns a scratch from the free list, or a new one.
func (rt *Runtime) getScratch() *scratch {
	rt.freeMu.Lock()
	defer rt.freeMu.Unlock()
	if n := len(rt.free); n > 0 {
		sc := rt.free[n-1]
		rt.free[n-1] = nil
		rt.free = rt.free[:n-1]
		rt.freeBytes -= sc.kept
		return sc
	}
	return &scratch{live: make(map[region.ID]liveRegion), cur: make(map[string]int64)}
}

// putScratch gives a settled job's scratch back. The caller has finalized the
// job's last wavefront: every handle the tables held was released and every
// view recycled, and no goroutine of the job is left to read them.
func (rt *Runtime) putScratch(sc *scratch) {
	sc.kept = sc.footprint()
	// Drop what the tables still point to, so the list pins no job's memory.
	clear(sc.handles)
	sc.w.r, sc.w.pool, sc.w.ctx, sc.w.seed = nil, nil, nil, nil
	sc.w.failErr, sc.w.canceled = nil, nil
	rt.freeMu.Lock()
	defer rt.freeMu.Unlock()
	if len(rt.free) < scratchFreeMax && rt.freeBytes+sc.kept <= scratchFreeBytes {
		rt.free = append(rt.free, sc)
		rt.freeBytes += sc.kept
	}
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
