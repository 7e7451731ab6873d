package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/workload"
)

// peakByName is computePeak as it was while the journal named each device by
// its ID: the sweep over a map of live regions and maps of each device's bytes
// now and at its peak, keyed by name. It is the oracle the index-keyed sweep is
// checked against; mems names the journal's dense indexes.
func peakByName(events []memEvent, mems []*memsim.Device) []DeviceBytes {
	events = slices.Clone(events)
	slices.SortStableFunc(events, func(a, b memEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.rank, b.rank))
	})
	type liveByName struct {
		dev   string
		bytes int64
		refs  int
	}
	live := make(map[region.ID]liveByName)
	cur, peak := make(map[string]int64), make(map[string]int64)
	bump := func(dev string) {
		if cur[dev] > peak[dev] {
			peak[dev] = cur[dev]
		}
	}
	for _, e := range events {
		dev := mems[e.dev].ID
		lr, known := live[e.id]
		switch {
		case e.kind == evAlloc:
			lr = liveByName{dev: dev, bytes: e.bytes, refs: 1}
			cur[dev] += e.bytes
			bump(dev)
		case !known:
			continue
		case e.kind == evShare:
			lr.refs++
		case e.kind == evRelease:
			if lr.refs--; lr.refs == 0 {
				cur[lr.dev] -= lr.bytes
				delete(live, e.id)
				continue
			}
		case e.kind == evMove && lr.dev != dev:
			cur[lr.dev] -= lr.bytes
			lr.dev = dev
			cur[dev] += lr.bytes
			bump(dev)
		}
		live[e.id] = lr
	}
	var out []DeviceBytes
	for dev, b := range peak {
		out = append(out, DeviceBytes{Device: dev, Bytes: b})
	}
	slices.SortFunc(out, func(a, b DeviceBytes) int { return strings.Compare(a.Device, b.Device) })
	return out
}

// checkPeakAgainstOracle runs job on rt and compares its PeakDeviceBytes with
// the oracle's sweep over the journal the run left in its scratch.
func checkPeakAgainstOracle(t *testing.T, rt *Runtime, job *dataflow.Job) {
	t.Helper()
	rep, err := rt.Run(job)
	if err != nil {
		t.Fatalf("%s: %v", job.Name(), err)
	}
	sc := rt.free.Get()
	if sc == nil {
		t.Fatalf("%s: no scratch on the free list", job.Name())
	}
	defer rt.free.Put(sc)
	want := peakByName(sc.events, rt.topo.Memories())
	if len(want) == 0 {
		t.Fatalf("%s: the journal holds no allocation", job.Name())
	}
	if got := rep.PeakDeviceBytes; !slices.Equal(got, want) {
		t.Errorf("%s: PeakDeviceBytes %v, the name-keyed sweep %v", job.Name(), got, want)
	}
}

// migratingJob is a chain of n tasks that alternate between a GPU and a CPU
// and demand low-latency memory, so each output lands in the producer's local
// memory and migrates on its way to the consumer: a journal with moves.
func migratingJob(n int) *dataflow.Job {
	j := dataflow.NewJob("migrating")
	var prev *dataflow.Task
	for i := 0; i < n; i++ {
		on := dataflow.OnGPU
		if i%2 == 1 {
			on = dataflow.OnCPU
		}
		t := j.Task(fmt.Sprint("m", i), dataflow.Props{Compute: on, MemLatency: props.LatencyLow, Ops: 1e5, OutputBytes: 4096}, nil)
		if prev != nil {
			prev.Then(t)
		}
		prev = t
	}
	return j
}

// TestPeakMatchesNameKeyedOracle: the sweep that keys devices by dense index
// reports, byte for byte, what the name-keyed sweep reports, on the random
// programs of the integrity tests and on the serving mix, over a topology
// whose device order is not its name order — so a sweep that emitted devices
// in index order, or named one by the wrong index, would show.
func TestPeakMatchesNameKeyedOracle(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSortedFunc(rt.topo.Memories(), func(a, b *memsim.Device) int { return strings.Compare(a.ID, b.ID) }) {
		t.Fatal("the default topology lists its memory devices in name order: the test would not tell index order from name order")
	}
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		p := buildIntegrityDAG(t, rand.New(rand.NewSource(int64(seed))), fmt.Sprintf("peak-%d", seed))
		checkPeakAgainstOracle(t, rt, p.job)
	}
	checkPeakAgainstOracle(t, rt, migratingJob(8))
	for _, real := range []float64{-1, 1} {
		mix := workload.NewMix(workload.MixConfig{Seed: 42, RealFraction: real})
		for i := 0; i < 64; i++ {
			checkPeakAgainstOracle(t, rt, mix.Next())
		}
	}
}
