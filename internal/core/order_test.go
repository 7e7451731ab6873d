package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataflow"
)

// Two loops consume a plan in an order that shows in their result: the load
// fold-back of scheduleInto (which core of a device ends up holding which
// finish) and scheduledComputes (the compute list a global's placement is
// asked for, printed in its no-candidate error). Both follow the plan's rank
// order; when plans were maps they followed map iteration.

// pinnedJob has independent tasks of different lengths on named device kinds.
func pinnedJob(name string, kinds ...dataflow.DevicePref) *dataflow.Job {
	j := dataflow.NewJob(name)
	for i, k := range kinds {
		j.Task(fmt.Sprintf("t%d", i), dataflow.Props{Compute: k, Ops: float64(7-i%5) * 1e6}, nil)
	}
	return j
}

func TestLoadFoldFollowsRankOrder(t *testing.T) {
	rt := newRuntime(t)
	cs := rt.topo.ComputeSet()
	jobs := []*dataflow.Job{
		pinnedJob("cpus", dataflow.OnCPU, dataflow.OnCPU, dataflow.OnCPU, dataflow.OnCPU, dataflow.OnCPU, dataflow.OnCPU),
		pinnedJob("mixed", dataflow.OnGPU, dataflow.OnCPU, dataflow.OnGPU, dataflow.OnTPU, dataflow.OnGPU),
	}
	var first []time.Duration
	for run := 0; run < 50; run++ {
		load := make([]time.Duration, cs.NumCores())
		want := make([]time.Duration, cs.NumCores())
		for _, j := range jobs {
			schedule, err := rt.scheduleInto(j, load)
			if err != nil {
				t.Fatal(err)
			}
			// The fold, restated: in rank order, each finish onto the device's
			// then-earliest core (lowest index on ties).
			for _, a := range schedule.Tasks {
				cores := cs.Cores(want, a.Dev)
				at := 0
				for i := range cores {
					if cores[i] < cores[at] {
						at = i
					}
				}
				cores[at] = max(cores[at], a.Finish)
			}
		}
		if !reflect.DeepEqual(load, want) {
			t.Fatalf("run %d: folded load differs from the rank-order fold", run)
		}
		if first == nil {
			first = load
		} else if !reflect.DeepEqual(load, first) {
			t.Fatalf("run %d: folded load differs from run 0's", run)
		}
	}
	busy := 0
	for _, at := range first {
		if at > 0 {
			busy++
		}
	}
	if busy != 11 { // idle cores: every task's finish lands on its own
		t.Errorf("%d cores hold a finish, want one per task (11)", busy)
	}
}

func TestScheduledComputesFollowRankOrder(t *testing.T) {
	rt := newRuntime(t)
	j := pinnedJob("devices", dataflow.OnTPU, dataflow.OnGPU, dataflow.OnTPU, dataflow.OnFPGA, dataflow.OnGPU)
	want := []string{"node0/tpu0", "node0/gpu0", "node0/fpga0"}
	for run := 0; run < 50; run++ {
		schedule, err := rt.sched.Schedule(j, rt.topo)
		if err != nil {
			t.Fatal(err)
		}
		g, err := j.Graph()
		if err != nil {
			t.Fatal(err)
		}
		r := rt.newRun(j, g, schedule, rt.topo.NewEpoch(), j.Name(), nil)
		if got := r.scheduledComputes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: scheduledComputes() = %v, want %v (first use, in rank order)", run, got, want)
		}
	}
}
