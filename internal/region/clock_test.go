package region

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// clockScript runs one tenant's life on clk and returns the virtual time each
// step completes at: allocate, write and read; hand the output to a GPU; share
// a coherent region between two CPUs and ping-pong a line; then heat a region
// stranded in far memory, meet at barrier, and sweep in clk. The sweep
// promotes every hot stranded region of the manager, the other tenant's too,
// on the clock of whoever sweeps first, so the last step is the cost of a read
// of the promoted region issued long after either sweep's moves drained.
func clockScript(t *testing.T, m *Manager, clk *topology.TaskView, tag string, barrier func()) []time.Duration {
	t.Helper()
	var times []time.Duration
	note := func(d time.Duration, err error) time.Duration {
		t.Helper()
		if err != nil {
			t.Fatalf("%s step %d: %v", tag, len(times), err)
		}
		times = append(times, d)
		return d
	}
	alloc := func(spec Spec) *Handle {
		t.Helper()
		spec.Owner, spec.Clock = Owner(tag+"/"+string(spec.Owner)), clk
		h, err := m.Alloc(spec)
		if err != nil {
			t.Fatalf("%s: alloc %s: %v", tag, spec.Name, err)
		}
		return h
	}
	buf := make([]byte, 4096)

	out := alloc(Spec{Name: "out", Class: props.Transfer, Size: 1 << 20, Owner: "p", Compute: "node0/cpu0"})
	now := note(out.WriteAt(0, 0, buf))
	now = note(out.ReadAt(now, 0, buf))
	in, now, err := out.Transfer(now, Owner(tag+"/gpu"), "node0/gpu0")
	note(now, err)
	now = note(in.ReadAsync(now, 0, buf).Await(now))
	if err := in.Release(); err != nil {
		t.Fatal(err)
	}

	g := alloc(Spec{Name: "g", Class: props.GlobalScratch, Size: 1 << 16, Owner: "g0", Compute: "node0/cpu0", Now: now})
	g1, err := g.Share(Owner(tag+"/g1"), "node0/cpu1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h := g
		if i%2 == 1 {
			h = g1
		}
		now = note(h.WriteAsync(now, 0, buf[:64]).Await(now))
	}
	if err := g1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := g.Release(); err != nil {
		t.Fatal(err)
	}

	far := alloc(Spec{
		Name: "far", Class: props.Custom, Size: 4096, Owner: "f", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	for i := 0; i < 16; i++ {
		now = note(far.ReadAsync(now, 0, buf[:256]).Await(now))
	}
	barrier()
	if _, err := m.RebalanceIn(clk, now, RebalancePolicy{}); err != nil {
		t.Fatal(err)
	}
	if dev, err := far.DeviceID(); err != nil || dev == "memnode0/far0" {
		t.Fatalf("%s: the hot stranded region is on %s (%v) after the sweep, want promoted", tag, dev, err)
	}
	later := now + time.Second
	done := note(far.ReadAsync(later, 0, buf[:256]).Await(later))
	times[len(times)-1] = done - later
	if err := far.Release(); err != nil {
		t.Fatal(err)
	}
	return times
}

// TestVirtualTimeDependsOnlyOnTheClock: one topology, one manager, two clock
// views. The same script run on each view from two goroutines at once
// reports, on each, the times it reports run alone — nothing one clock queues
// is seen by the other. A backlog built on one view steers BestFit away from
// the backed up device for allocations on that view and for no other. And there is no
// clock to fall back on: an allocation without one is refused.
func TestVirtualTimeDependsOnlyOnTheClock(t *testing.T) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Topology: topo, Placer: placement.NewBestFit(topo), Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	want := clockScript(t, m, topo.NewTaskView(), "alone", func() {})
	if again := clockScript(t, m, topo.NewTaskView(), "again", func() {}); !reflect.DeepEqual(again, want) {
		t.Fatalf("the script alone on a second fresh view: %v, first %v", again, want)
	}
	var arrived sync.WaitGroup
	arrived.Add(2)
	barrier := func() {
		arrived.Done()
		arrived.Wait()
	}
	got := make([][]time.Duration, 2)
	var wg sync.WaitGroup
	for i, tag := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, tag string, clk *topology.TaskView) {
			defer wg.Done()
			got[i] = clockScript(t, m, clk, tag, barrier)
		}(i, tag, topo.NewTaskView())
	}
	wg.Wait()
	for i, times := range got {
		if !reflect.DeepEqual(times, want) {
			t.Errorf("view %d beside another: %v, alone %v", i, times, want)
		}
	}
	if m.Live() != 0 {
		t.Fatalf("scripts left %d regions", m.Live())
	}

	// Steering: back up the device an allocation lands on, in view a only.
	a, b := topo.NewTaskView(), topo.NewTaskView()
	spec := Spec{Name: "steer", Class: props.Transfer, Size: 1 << 20, Owner: "steer", Compute: "node0/cpu0"}
	place := func(clk *topology.TaskView) string {
		t.Helper()
		spec.Clock = clk
		h, err := m.Alloc(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release() //nolint:errcheck // probe
		dev, err := h.DeviceID()
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	idle := place(a)
	rt, ok := topo.Route("node0/cpu0", idle)
	if !ok {
		t.Fatalf("no route to %s", idle)
	}
	a.AccessRoute(rt, 0, 1<<30, memsim.Write, memsim.Sequential)
	if dev := place(a); dev == idle {
		t.Errorf("a backlog on %s in view a did not steer view a's allocation away from it", idle)
	}
	if dev := place(b); dev != idle {
		t.Errorf("view b's allocation went to %s, want %s: view a's backlog steered it", dev, idle)
	}

	spec.Clock = nil
	if _, err := m.Alloc(spec); err == nil {
		t.Error("an allocation without a clock must be refused")
	}
}
