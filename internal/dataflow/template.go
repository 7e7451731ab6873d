package dataflow

import (
	"fmt"
	"sync/atomic"
)

// Template stamps out numbered instances of one job shape. Streaming uses
// it to instantiate a bounded window sub-DAG per source window; any caller
// that repeatedly submits the same graph under instance-numbered names can
// use it the same way.
//
// Instantiate builds a fresh Job every call, so instances never share Task
// pointers and may be submitted, retried, and released independently. What
// they may share is the resolved shape: the template keeps the last
// instance's Graph and builds the next instance along it, in storage sized
// from it. Whether the finished instance really has that shape is checked,
// not assumed (Job.Graph): if it has, its graph shares the shape's ranks,
// edges and names; if Build made anything else of it, it is resolved afresh
// and becomes the shape the next instance is built along.
//
// A Template must not be copied after its first Instantiate.
type Template struct {
	// Name is the instance-name format. It must contain exactly one %d
	// verb (width modifiers allowed, e.g. "etl/w%06d"), which receives the
	// instance number.
	Name string
	// Build populates one instance's task graph. It receives the empty job
	// (already named) and the instance number.
	Build func(j *Job, instance int) error

	shape atomic.Pointer[Graph] // the last instance's graph
}

// Instantiate builds, populates, and validates instance n of the template.
// Safe for concurrent callers.
func (t *Template) Instantiate(n int) (*Job, error) {
	if t.Build == nil {
		return nil, fmt.Errorf("dataflow: template %q has no Build", t.Name)
	}
	name := fmt.Sprintf(t.Name, n)
	var j *Job
	if s := t.shape.Load(); s != nil {
		j = alongShape(name, s)
	} else {
		j = NewJob(name)
	}
	if err := t.Build(j, n); err != nil {
		return nil, fmt.Errorf("dataflow: building %s: %w", j.Name(), err)
	}
	if err := j.Validate(); err != nil {
		return nil, fmt.Errorf("dataflow: template instance %s: %w", j.Name(), err)
	}
	g, _ := j.Graph() // Validate resolved it
	t.shape.Store(g)
	return j, nil
}
