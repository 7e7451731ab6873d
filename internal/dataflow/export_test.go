package dataflow

import (
	"fmt"
	"slices"
)

// Resolve is the uncached sort behind Graph: the reference a graph built
// along a shape is compared with.
func (j *Job) Resolve() (*Graph, error) {
	g := new(Graph)
	if err := j.resolve(g); err != nil {
		return nil, err
	}
	return g, nil
}

// SharesShape reports whether g is on the ranks and edges of s: whether the job
// g belongs to passed along's check against s.
func (g *Graph) SharesShape(s *Graph) bool { return &g.predOff[0] == &s.predOff[0] }

// DiffGraphs describes the first difference between two graphs, field by
// field, or returns "" when they agree: the task IDs in Order, each rank's
// Preds and Succs, InSlot and OutSlots, Names and OutName, and the rank and
// insertion-index maps. Tasks are compared by ID, so graphs of two jobs can
// agree; a caller that compares graphs of one job checks Order by identity.
func DiffGraphs(got, want *Graph) string {
	if got.Len() != want.Len() || got.Edges() != want.Edges() {
		return fmt.Sprintf("%d ranks and %d edges, want %d and %d", got.Len(), got.Edges(), want.Len(), want.Edges())
	}
	if !slices.Equal(got.rank, want.rank) || !slices.Equal(got.ins, want.ins) {
		return fmt.Sprintf("rank %v ins %v, want %v %v", got.rank, got.ins, want.rank, want.ins)
	}
	if a, b := got.Names([]byte("p/"), "/s"), want.Names([]byte("p/"), "/s"); a != b {
		return fmt.Sprintf("Names %q, want %q", a, b)
	}
	for k := range want.Order {
		switch {
		case got.Order[k].ID() != want.Order[k].ID():
			return fmt.Sprintf("rank %d is %s, want %s", k, got.Order[k].ID(), want.Order[k].ID())
		case !slices.Equal(got.Preds(k), want.Preds(k)):
			return fmt.Sprintf("rank %d: Preds %v, want %v", k, got.Preds(k), want.Preds(k))
		case !slices.Equal(got.Succs(k), want.Succs(k)):
			return fmt.Sprintf("rank %d: Succs %v, want %v", k, got.Succs(k), want.Succs(k))
		case got.InSlot(k) != want.InSlot(k) || !slices.Equal(got.OutSlots(k), want.OutSlots(k)):
			return fmt.Sprintf("rank %d: InSlot %d OutSlots %v, want %d %v", k, got.InSlot(k), got.OutSlots(k), want.InSlot(k), want.OutSlots(k))
		case got.OutName(k) != want.OutName(k):
			return fmt.Sprintf("rank %d: OutName %q, want %q", k, got.OutName(k), want.OutName(k))
		}
	}
	return ""
}

// AlongShape returns an empty job to be built along s, as a Template builds
// its next instance.
func AlongShape(name string, s *Graph) *Job { return alongShape(name, s) }
