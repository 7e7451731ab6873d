package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// taskCtx implements dataflow.Ctx: the window through which a task body
// talks to the RTS. All time is virtual; every region operation both moves
// real bytes and advances the task's clock by the simulated cost.
type taskCtx struct {
	run     *run
	task    *dataflow.Task
	compute *topology.ComputeDevice
	now     time.Duration
	owner   region.Owner

	inputs []*region.Handle
	// ins is the copy of inputs Inputs hands the body, refilled on every
	// call: what a body does to it never reaches the list the engine
	// releases.
	ins          []*region.Handle
	scratch      []*region.Handle
	output       *region.Handle
	globalShares []namedHandle // the task's shares of job globals, by name
	// regions is the task's labelled placements, by label, which finalize
	// copies into the report. It starts in placed, which holds the most a
	// task of the serving mix labels: three, DBMS hash-aggregate's table,
	// index and output (TestServingMixPlacementsFitInline). The ML and HPC
	// jobs' four-label tasks spill.
	regions []RegionPlacement
	placed  [3]RegionPlacement
	// finalDev is the device of the output a sink retained, "" if none.
	finalDev string
	// logText holds the task's log lines back to back, and logEnds where
	// each ends in it; fillReport copies them out once the run succeeded.
	logText []byte
	logEnds []int

	// view is the task's private causal clock view, the one every allocation
	// and access of the task is priced against. rank is the task's
	// deterministic topological rank — both are installed by the dispatcher,
	// and installed with the run, the rank-order barrier (run.After), on every
	// handle the task touches.
	view *topology.TaskView
	rank int
	// events is the task's journal of the run's virtual memory ledger, in the
	// order the task noted them, which computePeak sweeps once the run has
	// succeeded (wavefront.go). It starts in journal, which holds what a task
	// with an output and an input or two notes.
	events  []memEvent
	journal [4]memEvent
	// span is the task's trace span once it completed (execution or restore),
	// zero until then: cleanup hands the attempt's spans to the registry in
	// one call, in rank order, and zeroes them.
	span telemetry.Span
}

// reset empties the slot for its next task: every field is zero but the
// slices, which keep their storage, emptied, so a slot holds no earlier task's
// pointers and a journal, placement list, input copy or log buffer that once
// grew does not grow again. A slot that never spilled starts in its inline
// arrays. It writes field by field, not a whole slot: every slice holds zeros
// past its length (emptied), so only what a task used is cleared, and the
// journal and log buffers hold no pointers and are not cleared at all. placed
// is cleared when regions spilled out of it, since nothing else empties it.
func (c *taskCtx) reset() {
	c.run, c.task, c.compute, c.now, c.owner = nil, nil, nil, 0, ""
	c.inputs, c.output, c.finalDev = nil, nil, ""
	c.view, c.rank = nil, 0
	c.ins, c.scratch, c.globalShares = emptied(c.ins), emptied(c.scratch), emptied(c.globalShares)
	c.logText, c.logEnds, c.events = c.logText[:0], c.logEnds[:0], c.events[:0]
	if c.regions == nil {
		c.regions = c.placed[:0]
	} else if unsafe.SliceData(c.regions) != &c.placed[0] {
		clear(c.placed[:])
	}
	c.regions = emptied(c.regions)
	if c.events == nil {
		c.events = c.journal[:0]
	}
}

// footprint is the slot's bytes and what its slices kept beyond its inline
// arrays, for scratch.footprint.
func (c *taskCtx) footprint() int {
	const word = int(unsafe.Sizeof(uintptr(0)))
	n := int(unsafe.Sizeof(*c)) + (cap(c.ins)+cap(c.scratch)+cap(c.logEnds))*word + cap(c.logText) +
		cap(c.globalShares)*int(unsafe.Sizeof(namedHandle{}))
	if cap(c.regions) > 0 && unsafe.SliceData(c.regions) != &c.placed[0] {
		n += cap(c.regions) * int(unsafe.Sizeof(RegionPlacement{}))
	}
	if cap(c.events) > 0 && unsafe.SliceData(c.events) != &c.journal[0] {
		n += cap(c.events) * int(unsafe.Sizeof(memEvent{}))
	}
	return n
}

// emptied returns s cleared and emptied. A context slice only grows by
// append or insert, and only shrinks here, so what lies past its length is
// already zero.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// Now implements dataflow.Ctx.
func (c *taskCtx) Now() time.Duration { return c.now }

// Compute implements dataflow.Ctx.
func (c *taskCtx) Compute() string { return c.compute.ID }

// Charge implements dataflow.Ctx: ops scalar operations on this device.
func (c *taskCtx) Charge(ops float64) {
	if ops <= 0 {
		return
	}
	c.now += time.Duration(ops / (c.compute.Gops * 1e9) * float64(time.Second))
}

// Wait implements dataflow.Ctx.
func (c *taskCtx) Wait(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// scratchReq builds the requirements for task-local memory from the task's
// declarative properties. A persistent demand relaxes the latency class to
// at least medium: persistent media are never sub-200ns in Table 1 (the
// paper's Fig. 2 annotations are aspirational; see EXPERIMENTS.md).
func scratchReq(p dataflow.Props) props.Requirements {
	req := props.Requirements{Confidential: p.Confidential}
	if p.MemLatency != props.LatencyAny {
		req.Latency = p.MemLatency
	}
	if p.Persistent {
		req.Persistent = props.Require
		if req.Latency != props.LatencyAny && req.Latency < props.LatencyMedium {
			req.Latency = props.LatencyMedium
		}
	}
	return req
}

// Scratch implements dataflow.Ctx: thread-local Private Scratch (Table 2).
func (c *taskCtx) Scratch(name string, size int64) (*region.Handle, error) {
	req := scratchReq(c.task.Props())
	class := props.PrivateScratch
	if req.Persistent == props.Require {
		// Private Scratch's low-latency class default conflicts with
		// persistent media (Table 1 has no sub-200ns persistent device);
		// honour persistence with an equivalent Custom request at relaxed
		// latency instead of letting the class default re-tighten it.
		class = props.Custom
		req.Latency = props.LatencyMedium
		req.Sync = props.Require
		req.ByteAddr = props.Require
		req.PreferLocal = true
	}
	h, err := c.run.rt.regions.Alloc(region.Spec{
		Name: name, Class: class, Size: size,
		Req: req, Owner: c.owner, Compute: c.compute.ID, Now: c.now,
		Clock: c.view,
	})
	if err != nil {
		return nil, err
	}
	h.Rebind(c.view, c.rank, c.run)
	c.noteAlloc(h, size, name)
	c.scratch = append(c.scratch, h)
	return h, nil
}

// Output implements dataflow.Ctx: the region handed to successors (Fig. 4).
func (c *taskCtx) Output(size int64) (*region.Handle, error) {
	if c.output != nil {
		return nil, errors.New("core: task already allocated its output")
	}
	class := props.Transfer
	if len(c.run.g.Succs(c.rank)) > 1 {
		// Several consumers: the output must be shareable, i.e. Global
		// Scratch (Table 2's "data exchange" region).
		class = props.GlobalScratch
	}
	req := scratchReq(c.task.Props())
	req.Persistent = props.Any // outputs are in-flight data, not task state
	if class == props.GlobalScratch && req.Latency != props.LatencyAny && req.Latency < props.LatencyMedium {
		req.Latency = props.LatencyMedium // coherent+shareable is never sub-200ns here
	}
	h, err := c.run.rt.regions.Alloc(region.Spec{
		Name: c.run.g.OutName(c.rank), Class: class, Size: size,
		Req: req, Owner: c.owner, Compute: c.compute.ID, Now: c.now,
		Clock: c.view,
	})
	if err != nil {
		return nil, err
	}
	h.Rebind(c.view, c.rank, c.run)
	c.noteAlloc(h, size, "out")
	c.output = h
	return h, nil
}

// Inputs implements dataflow.Ctx: the slot's copy of the input list, refilled
// and clipped, so a body that appends to it moves out of the slot's storage.
func (c *taskCtx) Inputs() []*region.Handle {
	c.ins = append(c.ins[:0], c.inputs...)
	return slices.Clip(c.ins)
}

// Global implements dataflow.Ctx: job-wide named regions, allocated on
// first use with a placement addressable by every scheduled compute device
// (§2.2 challenge (2)), then shared with each requesting task.
func (c *taskCtx) Global(name string, class props.RegionClass, size int64) (*region.Handle, error) {
	at, ok := slices.BinarySearchFunc(c.globalShares, name, byName)
	if ok {
		return c.globalShares[at].h, nil
	}
	c.run.smu.Lock()
	g := c.run.global(name)
	c.run.smu.Unlock()
	if g == nil {
		// First use: fence on rank order so the creating task — whose
		// compute device anchors the placement — is the same task a
		// sequential run would pick, regardless of wall-clock arrival.
		// After the fence every lower rank has completed, so a re-check
		// either finds the global or makes this task its deterministic
		// creator (two concurrent creators are impossible: the higher rank
		// blocks at its fence until the lower one finishes).
		// Full barrier (nil deps): any lower rank could be the
		// deterministic creator, so all of them must retire first.
		if err := c.run.After(int32(c.rank), nil); err != nil {
			return nil, err
		}
		c.run.smu.Lock()
		g = c.run.global(name)
		c.run.smu.Unlock()
	}
	if g == nil {
		if !class.Shareable() {
			return nil, fmt.Errorf("core: global %q needs a shareable class, got %s", name, class)
		}
		req, err := props.Merge(class.Defaults(), props.Requirements{Capacity: size})
		if err != nil {
			return nil, err
		}
		// Place for the union of compute devices this job uses.
		if shared, ok := c.run.rt.placer.(interface {
			PlaceShared(props.Requirements, []string) (string, error)
		}); ok {
			computes := c.run.scheduledComputes()
			if dev, err := shared.PlaceShared(req, computes); err == nil {
				g, _ = c.run.rt.regions.Alloc(region.Spec{
					Name: name, Class: class, Size: size,
					Owner: region.Owner(c.run.ns), Compute: c.pinCompute(dev),
					Device: dev, Clock: c.view,
				})
			}
		}
		if g == nil {
			if g, err = c.run.rt.regions.Alloc(region.Spec{
				Name: name, Class: class, Size: size,
				Owner: region.Owner(c.run.ns), Compute: c.compute.ID,
				Clock: c.view,
			}); err != nil {
				return nil, err
			}
		}
		c.noteAlloc(g, size, name)
		c.run.smu.Lock()
		c.run.globals = append(c.run.globals, jobGlobal{namedHandle{name, g}, c.rank})
		c.run.smu.Unlock()
	}
	sh, err := g.Share(c.owner, c.compute.ID)
	if err != nil {
		return nil, fmt.Errorf("core: sharing global %q: %w", name, err)
	}
	// The share inherited the creator's clock view; rebind it to this
	// task's own before any access is priced through it.
	sh.Rebind(c.view, c.rank, c.run)
	c.noteShare(sh)
	c.globalShares = slices.Insert(c.globalShares, at, namedHandle{name, sh})
	c.noteRegion(name, sh)
	return sh, nil
}

// namedHandle is a job global's region, or a task's share of it, under the
// global's name.
type namedHandle struct {
	name string
	h    *region.Handle
}

func byName(g namedHandle, name string) int { return strings.Compare(g.name, name) }

// jobGlobal is a job global and the rank of the task whose first use
// created it.
type jobGlobal struct {
	namedHandle
	creator int
}

// global returns the job global of that name, nil before its first use.
// Caller holds r.smu.
func (r *run) global(name string) *region.Handle {
	for _, g := range r.globals {
		if g.name == name {
			return g.h
		}
	}
	return nil
}

// createdGlobal reports whether the task of rank k created a job global,
// which its snapshot records (ckEntry.createdGlobal).
func (r *run) createdGlobal(k int) bool {
	r.smu.Lock()
	defer r.smu.Unlock()
	for _, g := range r.globals {
		if g.creator == k {
			return true
		}
	}
	return false
}

// pinCompute finds a compute device that can address dev, preferring the
// task's own; used to steer the global allocation to the co-placed device.
func (c *taskCtx) pinCompute(dev string) string {
	if c.run.rt.topo.Addressable(c.compute.ID, dev) {
		return c.compute.ID
	}
	for _, comp := range c.run.cs.Devices {
		if c.run.rt.topo.Addressable(comp.ID, dev) {
			return comp.ID
		}
	}
	return c.compute.ID
}

// scheduledComputes lists the distinct compute devices the schedule uses,
// in the rank order of their first task. The list is the job scratch's, built
// again on every call: only a global's creator calls it, and creators run one
// at a time (Global's fence).
func (r *run) scheduledComputes() []string {
	out := r.sc.computes[:0]
	for _, a := range r.schedule.Tasks {
		if !slices.Contains(out, a.Compute) {
			out = append(out, a.Compute)
		}
	}
	r.sc.computes = out
	return out
}

// report fills in the task's report from what the context recorded, bar its
// Regions and Logs, which fillReport copies out of the context once the run
// succeeded.
func (c *taskCtx) report(start time.Duration) *TaskReport {
	rep := &c.run.reports[c.rank]
	*rep = TaskReport{
		Task: c.task.ID(), Compute: c.compute.ID,
		Start: start, Finish: c.now,
	}
	return rep
}

// Log implements dataflow.Ctx: the line is formatted into the slot's buffer.
func (c *taskCtx) Log(format string, args ...any) {
	c.logText = fmt.Appendf(c.logText, format, args...)
	c.logEnds = append(c.logEnds, len(c.logText))
}

// Telemetry implements dataflow.Ctx.
func (c *taskCtx) Telemetry() *telemetry.Registry { return c.run.rt.tel }

// noteRegion records the placement of a labelled region for the report.
func (c *taskCtx) noteRegion(label string, h *region.Handle) {
	if dev, err := h.DeviceID(); err == nil {
		c.noteDevice(label, dev)
	}
}

// noteDevice records that the labelled region is on dev; relabelling a label
// overwrites its placement.
func (c *taskCtx) noteDevice(label, dev string) {
	i, ok := slices.BinarySearchFunc(c.regions, label, byLabel)
	if ok {
		c.regions[i].Device = dev
		return
	}
	c.regions = slices.Insert(c.regions, i, RegionPlacement{Label: label, Device: dev})
}

// releaseScratchAndInputs frees task-lifetime regions after the body ran.
// Only releases that actually dropped a claim are journaled: a handle the
// task already released itself stays live in the ledger until its true last
// release (or run end).
func (c *taskCtx) releaseScratchAndInputs() {
	for _, h := range c.scratch {
		if h.Release() == nil { //nolint:errcheck // may already be released by the task
			c.noteRelease(h)
		}
	}
	c.scratch = emptied(c.scratch)
	for _, h := range c.inputs {
		if h.Release() == nil { //nolint:errcheck // may already be released by the task
			c.noteRelease(h)
		}
	}
	c.inputs = nil
}

// releaseAll is the failure-path teardown.
func (c *taskCtx) releaseAll() {
	c.releaseScratchAndInputs()
	if c.output != nil {
		c.output.Release() //nolint:errcheck // best-effort teardown
		c.output = nil
	}
	for _, g := range c.globalShares {
		g.h.Release() //nolint:errcheck // best-effort teardown
	}
	c.globalShares = emptied(c.globalShares)
}

// Compile-time check that taskCtx satisfies the programming-model contract.
var _ dataflow.Ctx = (*taskCtx)(nil)
