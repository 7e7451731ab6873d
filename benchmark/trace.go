package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/stream"
)

// span is one traced interval. Times are ns since the run phase began.
// Parent is an index into the same trace, -1 for a root; Job is the
// run-phase submission the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Job    int32  `json:"job"`
}

// tracer records spans from the benchmark's side of the API only: around
// the submission call and the ticket wait (from the phase records), and —
// by wrapping the bodies of real-body tasks — around each task body and the
// region allocations it makes through dataflow.Ctx. Nil bodies stay nil:
// wrapping one would turn a declared-cost task into an opaque one and change
// its virtual time.
type tracer struct {
	jobs    []*dataflow.Job // the pool, rebuilt with wrapped bodies
	current []int32         // pool index → submission now in flight
	epoch   time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(pool []*dataflow.Job) *tracer {
	t := &tracer{
		jobs:    make([]*dataflow.Job, len(pool)),
		current: make([]int32, len(pool)),
	}
	for i, j := range pool {
		t.jobs[i] = t.wrapJob(j, i)
	}
	return t
}

// reset starts a phase: spans of the phase before (the ramp) are dropped and
// times count from the same instant as the phase records.
func (t *tracer) reset(epoch time.Time) {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.epoch = epoch
	t.mu.Unlock()
}

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) }

// wrapJob returns job with every non-nil body wrapped, or job itself when
// it has none.
func (t *tracer) wrapJob(job *dataflow.Job, poolIndex int) *dataflow.Job {
	real := false
	for _, tk := range job.Tasks() {
		real = real || tk.Fn() != nil
	}
	if !real {
		return job
	}
	out := dataflow.NewJob(job.Name())
	t.copyWrapped(out, job, func() int32 { return t.current[poolIndex] })
	return out
}

// copyWrapped rebuilds src's task graph on dst with wrapped bodies. Edges
// are re-added in an order that keeps both each task's successor order and
// each task's predecessor order, because the runtime hands inputs over in
// predecessor order and shares outputs in successor order.
func (t *tracer) copyWrapped(dst, src *dataflow.Job, submission func() int32) {
	tasks := src.Tasks()
	byID := make(map[string]*dataflow.Task, len(tasks))
	for _, tk := range tasks {
		byID[tk.ID()] = dst.Task(tk.ID(), tk.Props(), t.wrapFn(tk.ID(), tk.Fn(), submission))
	}
	nextSucc := make(map[string]int, len(tasks))
	nextPred := make(map[string]int, len(tasks))
	for progress := true; progress; {
		progress = false
		for _, p := range tasks {
			succs := p.Succs()
			for nextSucc[p.ID()] < len(succs) {
				s := succs[nextSucc[p.ID()]]
				if s.Preds()[nextPred[s.ID()]].ID() != p.ID() {
					break // s is waiting for an earlier predecessor's edge
				}
				byID[p.ID()].Then(byID[s.ID()])
				nextSucc[p.ID()]++
				nextPred[s.ID()]++
				progress = true
			}
		}
	}
}

// wrapBuild is copyWrapped for a stream: each window's graph is built on a
// scratch job, then copied onto the window's job with wrapped bodies. A
// window is its own submission, so its index is the span's job.
func (t *tracer) wrapBuild(build func(stream.Window, *dataflow.Job) error) func(stream.Window, *dataflow.Job) error {
	return func(w stream.Window, j *dataflow.Job) error {
		tmp := dataflow.NewJob(j.Name())
		if err := build(w, tmp); err != nil {
			return err
		}
		t.copyWrapped(j, tmp, func() int32 { return int32(w.Index) })
		return nil
	}
}

func (t *tracer) wrapFn(id string, fn dataflow.Fn, submission func() int32) dataflow.Fn {
	if fn == nil {
		return nil
	}
	return func(ctx dataflow.Ctx) error {
		job := submission()
		self := t.add(span{Name: "task:" + id, Start: t.since(), Parent: -1, Job: job})
		err := fn(&tracedCtx{Ctx: ctx, t: t, parent: self, job: job})
		end := t.since()
		t.mu.Lock()
		t.spans[self].End = end
		t.mu.Unlock()
		return err
	}
}

// tracedCtx times the three calls through which a body allocates regions.
type tracedCtx struct {
	dataflow.Ctx
	t      *tracer
	parent int32
	job    int32
}

func (c *tracedCtx) child(name string, start int64) {
	c.t.add(span{Name: name, Start: start, End: c.t.since(), Parent: c.parent, Job: c.job})
}

func (c *tracedCtx) Output(size int64) (*region.Handle, error) {
	defer c.child("ctx.output", c.t.since())
	return c.Ctx.Output(size)
}

func (c *tracedCtx) Scratch(name string, size int64) (*region.Handle, error) {
	defer c.child("ctx.scratch", c.t.since())
	return c.Ctx.Scratch(name, size)
}

func (c *tracedCtx) Global(name string, class props.RegionClass, size int64) (*region.Handle, error) {
	defer c.child("ctx.global", c.t.since())
	return c.Ctx.Global(name, class, size)
}

// bodyTime sums, over the trace, the self time of task bodies (their span
// minus the allocation calls inside it) and the time in those calls.
func (t *tracer) bodyTime() (self, alloc time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		if s.Parent < 0 {
			self += d
		} else {
			alloc += d
			self -= d
		}
	}
	return self, alloc
}

// maxTraceJobs bounds the trace file: the budget uses every span, the file
// keeps the first submissions only.
const maxTraceJobs = 4096

// write stores the trace as one JSON array: per submission a root "job"
// span (due → delivered) with "submit" and "wait" children from the phase
// records, then the task spans, re-parented under their job.
func (t *tracer) write(path string, p *phaseData) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(p.n, maxTraceJobs)
	out := make([]span, 0, 3*n+len(t.spans))
	for i := 0; i < n; i++ {
		r := p.rec(i)
		root := int32(len(out))
		out = append(out,
			span{"job", r.due, r.done, -1, int32(i)},
			span{"submit", r.due, r.ret, root, int32(i)},
			span{"wait", r.ret, r.done, root, int32(i)})
	}
	at := make([]int32, len(t.spans)) // where each kept span landed in out
	for i, s := range t.spans {
		if int(s.Job) >= n {
			continue
		}
		if s.Parent < 0 {
			s.Parent = 3 * s.Job
		} else {
			s.Parent = at[s.Parent] // a body's span precedes its children
		}
		at[i] = int32(len(out))
		out = append(out, s)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
