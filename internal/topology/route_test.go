package topology

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// TestRouteMatchesEffectiveCaps: the route's derived fields are the ones
// EffectiveCaps reports, for every pair of the testbed, and a pair resolves
// to one shared object.
func TestRouteMatchesEffectiveCaps(t *testing.T) {
	topo := testbed(t)
	for _, c := range topo.Computes() {
		for i, m := range topo.Memories() {
			rt, ok := topo.Route(c.ID, m.ID)
			caps, capsOK := topo.EffectiveCaps(c.ID, m.ID)
			if ok != capsOK {
				t.Fatalf("%s→%s: Route ok=%v, EffectiveCaps ok=%v", c.ID, m.ID, ok, capsOK)
			}
			if !ok {
				continue
			}
			if rt.Mem != m || rt.Idx != i {
				t.Errorf("%s→%s: route leads to %s at index %d, want index %d", c.ID, m.ID, rt.Mem.ID, rt.Idx, i)
			}
			if rt.Lat != caps.Latency || rt.Sync != caps.Sync || rt.Remote != caps.Remote {
				t.Errorf("%s→%s: route {Lat %v Sync %v Remote %v}, caps {%v %v %v}",
					c.ID, m.ID, rt.Lat, rt.Sync, rt.Remote, caps.Latency, caps.Sync, caps.Remote)
			}
			if again, _ := topo.Route(c.ID, m.ID); again != rt {
				t.Errorf("%s→%s: resolved twice into different objects", c.ID, m.ID)
			}
		}
	}
	if _, ok := topo.Route("node0/cpu0", "node0/gpu0"); ok {
		t.Error("a route to a compute device must not resolve as a memory route")
	}
	if _, ok := topo.Route("node0/cpu0", "nowhere"); ok {
		t.Error("a route to an unknown endpoint must not resolve")
	}
}

// island builds cpu —1µs→ dram, plus an unlinked memory device "spare".
func island(t *testing.T) *Topology {
	t.Helper()
	topo := New()
	if err := topo.AddCompute(&ComputeDevice{ID: "cpu", Kind: CPU, Gops: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"dram", "spare"} {
		d, err := memsim.NewDevice(id, memsim.DRAMSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.AddMemory(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Connect(Link{A: "cpu", B: "dram", Kind: LinkMemBus, Latency: time.Microsecond, Bandwidth: 1e9, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestConnectInvalidatesRoutes: a link added after routes were resolved
// drops them — positive and negative ones — and marks the old objects stale
// for whoever cached them.
func TestConnectInvalidatesRoutes(t *testing.T) {
	topo := island(t)
	old, ok := topo.Route("cpu", "dram")
	if !ok || old.Path.Latency != time.Microsecond || !old.Valid() {
		t.Fatalf("cpu→dram = %+v ok=%v, want a valid 1µs route", old, ok)
	}
	if _, ok := topo.Route("cpu", "spare"); ok {
		t.Fatal("spare is unlinked and must not resolve")
	}
	if _, err := topo.AccessTime("cpu", "spare", 0, 64, memsim.Read, memsim.Sequential); err == nil || err.Error() != "topology: no path cpu→spare" {
		t.Errorf("unreachable AccessTime err = %v", err)
	}
	if _, err := topo.AccessTime("cpu", "ghost", 0, 64, memsim.Read, memsim.Sequential); err == nil || err.Error() != `topology: unknown memory device "ghost"` {
		t.Errorf("unknown-device AccessTime err = %v", err)
	}

	// A faster link to dram and a first link to spare.
	if err := topo.Connect(Link{A: "cpu", B: "dram", Kind: LinkMemBus, Latency: 100 * time.Nanosecond, Bandwidth: 1e9, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(Link{A: "cpu", B: "spare", Kind: LinkNIC, Latency: 5 * time.Microsecond, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	if old.Valid() {
		t.Error("a route resolved before Connect must report stale")
	}
	fresh, ok := topo.Route("cpu", "dram")
	if !ok || fresh == old || fresh.Path.Latency != 100*time.Nanosecond || !fresh.Valid() {
		t.Errorf("cpu→dram after Connect = %+v ok=%v, want a new valid 100ns route", fresh, ok)
	}
	spare, ok := topo.Route("cpu", "spare")
	if !ok || !spare.Remote || spare.Sync {
		t.Errorf("cpu→spare after Connect = %+v ok=%v, want a remote, async-only route", spare, ok)
	}
	if p, ok := topo.Path("cpu", "dram"); !ok || p.Latency != 100*time.Nanosecond {
		t.Errorf("Path after Connect = %+v ok=%v", p, ok)
	}
}

// TestAddMemoryInvalidatesRoutesAndGrowsViews: an ID that resolved as a
// switch becomes a memory route once the device is registered, and queue
// state taken before the device existed grows to hold it.
func TestAddMemoryInvalidatesRoutesAndGrowsViews(t *testing.T) {
	topo := island(t)
	if err := topo.Connect(Link{A: "cpu", B: "late", Kind: LinkPCIe, Latency: 2 * time.Microsecond, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.Path("cpu", "late"); !ok {
		t.Fatal("late is linked (as a switch) and must route")
	}
	if _, ok := topo.Route("cpu", "late"); ok {
		t.Fatal("late is not a memory device yet")
	}
	view, epoch := topo.NewTaskView(), topo.NewEpoch()
	snap := epoch.View()

	d, err := memsim.NewDevice("late", memsim.DRAMSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddMemory(d); err != nil {
		t.Fatal(err)
	}
	rt, ok := topo.Route("cpu", "late")
	if !ok || rt.Mem != d || rt.Idx != 2 {
		t.Fatalf("cpu→late after AddMemory = %+v ok=%v, want index 2", rt, ok)
	}

	want, err := topo.NewTaskView().AccessTime("cpu", "late", 0, 4096, memsim.Write, memsim.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	for name, clk := range map[string]VClock{"view": view, "epoch": epoch, "snapshot": snap} {
		if got := clk.BusyUntil("late"); got != 0 {
			t.Errorf("%s: BusyUntil(late) before any access = %v", name, got)
		}
		got, err := clk.AccessTime("cpu", "late", 0, 4096, memsim.Write, memsim.Sequential)
		if err != nil || got != want {
			t.Errorf("%s: access to the late device = %v, %v; want %v", name, got, err, want)
		}
		if clk.BusyUntil("late") == 0 {
			t.Errorf("%s: access did not advance the late device's queue", name)
		}
	}
	// Views of different lengths fold into each other in both directions.
	short := &TaskView{topo: topo, busy: make([]time.Duration, 1)}
	short.Merge(view)
	if short.BusyUntil("late") != view.BusyUntil("late") {
		t.Error("Merge of a longer view must grow the shorter one")
	}
	view.Merge(&TaskView{topo: topo, busy: []time.Duration{time.Hour}})
	if view.BusyUntil("dram") != time.Hour || view.BusyUntil("late") == 0 {
		t.Error("Merge of a shorter view must keep the longer one's tail")
	}
	epoch.Absorb(short)
	if epoch.BusyUntil("late") != view.BusyUntil("late") {
		t.Error("Absorb must take the element-wise max")
	}
	pooled := GetTaskView(view)
	if pooled.BusyUntil("dram") != time.Hour || pooled.BusyUntil("late") != view.BusyUntil("late") {
		t.Error("GetTaskView must copy the source's queue state")
	}
	PutTaskView(pooled)
}

// TestViewsAgreeWithGlobalQueue: the three queue stores price the same
// access sequence identically — AccessRoute is one piece of arithmetic.
func TestViewsAgreeWithGlobalQueue(t *testing.T) {
	topo := testbed(t)
	view, epoch := topo.NewTaskView(), topo.NewEpoch()
	now := time.Duration(0)
	for i, mem := range []string{"node0/dram0", "memnode0/far0", "node0/dram0", "node0/ssd0", "node0/dram0"} {
		size, kind := int64(64<<i), memsim.AccessKind(i%2)
		g, err := topo.AccessTime("node0/gpu0", mem, now, size, kind, memsim.Random)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := view.AccessTime("node0/gpu0", mem, now, size, kind, memsim.Random)
		e, _ := epoch.AccessTime("node0/gpu0", mem, now, size, kind, memsim.Random)
		if v != g || e != g {
			t.Errorf("access %d to %s: global %v, view %v, epoch %v", i, mem, g, v, e)
		}
		if d, _ := topo.Memory(mem); d.Stats().BusyUntil != view.BusyUntil(mem) || epoch.BusyUntil(mem) != view.BusyUntil(mem) {
			t.Errorf("access %d to %s: queue drain times diverge", i, mem)
		}
	}
}

// TestViewLedger: a view counts what is priced through it and what is
// deferred to it, shows none of it until it is published, and publishes each
// count once — to a counter even a sum of zero, which is what lists it. A
// clone, a merge and a pooled copy take the queue state and leave the ledger.
// What does not fit the view's fixed storage is counted at once instead.
func TestViewLedger(t *testing.T) {
	topo := testbed(t)
	reg := telemetry.NewRegistry()
	moved, idle := reg.Handle(telemetry.LayerRegion, "bytes_read"), reg.Handle(telemetry.LayerRegion, "bytes_written")
	dram, _ := topo.Memory("node0/dram0")
	view := topo.NewTaskView()
	for i := 0; i < 5; i++ {
		if _, err := view.AccessTime("node0/cpu0", dram.ID, 0, 64, memsim.AccessKind(i%2), memsim.Sequential); err != nil {
			t.Fatal(err)
		}
		view.Defer(moved, 64)
	}
	view.Defer(idle, 0)
	if s := dram.Stats(); s.Reads+s.Writes != 0 || len(reg.Counters()) != 0 {
		t.Fatalf("counts visible before the view was published: %+v %v", s, reg.Counters())
	}
	clone, pooled := view.Clone(), GetTaskView(view)
	clone.Merge(view)
	if clone.BusyUntil(dram.ID) != view.BusyUntil(dram.ID) || pooled.BusyUntil(dram.ID) != view.BusyUntil(dram.ID) {
		t.Error("copies must carry the queue state")
	}
	clone.Publish()
	PutTaskView(pooled)
	if s := dram.Stats(); s.Reads+s.Writes != 0 {
		t.Fatalf("a copy of the view published the view's ledger: %+v", s)
	}
	view.Publish()
	view.Publish()
	want := memsim.Stats{Reads: 3, Writes: 2, BytesRead: 192, BytesWritten: 128}
	if s := dram.Stats(); s.Reads != want.Reads || s.Writes != want.Writes || s.BytesRead != want.BytesRead || s.BytesWritten != want.BytesWritten {
		t.Errorf("device counts after publishing twice: %+v, want %+v", s, want)
	}
	if c := reg.Counters(); c["region/bytes_read"] != 320 || len(c) != 2 {
		t.Errorf("counters after publishing twice: %v, want bytes_read 320 and bytes_written listed at 0", c)
	}

	// More devices and more counters than the ledger holds: exact all the same.
	var counters []*telemetry.Counter
	for i := 0; i < len(view.owed)+2; i++ {
		counters = append(counters, reg.Handle(telemetry.LayerRuntime, fmt.Sprint("c", i)))
	}
	mems := topo.Memories()
	for round := 0; round < 3; round++ {
		for _, c := range counters {
			view.Defer(c, 1)
		}
		for _, m := range mems {
			if rt, ok := topo.Route("node0/cpu0", m.ID); ok {
				view.AccessRoute(rt, 0, 8, memsim.Read, memsim.Sequential)
			}
		}
	}
	view.Publish()
	for i := range counters {
		if got := reg.Counter(telemetry.LayerRuntime, fmt.Sprint("c", i)); got != 3 {
			t.Errorf("counter %d = %d, want 3", i, got)
		}
	}
	reached := 0
	for _, m := range mems {
		if _, ok := topo.Route("node0/cpu0", m.ID); !ok {
			continue
		}
		reached++
		if got := m.Stats().Reads; got != 3+want.Reads*b2u(m == dram) {
			t.Errorf("%s: %d reads, want %d", m.ID, got, 3+want.Reads*b2u(m == dram))
		}
	}
	if reached <= len(view.touched) {
		t.Fatalf("the testbed reaches %d devices from cpu0: not enough to overflow the ledger's %d", reached, len(view.touched))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestAccessPathAllocatesNothing: pricing an access — by route or by ID —
// and reading a pair's static properties are allocation-free once the route
// is resolved.
func TestAccessPathAllocatesNothing(t *testing.T) {
	topo := testbed(t)
	view := topo.NewTaskView()
	rt, ok := topo.Route("node0/cpu0", "node0/dram0")
	if !ok {
		t.Fatal("cpu0→dram0 must resolve")
	}
	for name, fn := range map[string]func(){
		"TaskView.AccessTime": func() {
			sinkDur, _ = view.AccessTime("node0/cpu0", "node0/dram0", 0, 64, memsim.Read, memsim.Sequential)
		},
		"TaskView.AccessRoute": func() { sinkDur = view.AccessRoute(rt, 0, 64, memsim.Write, memsim.Sequential) },
		"Topology.Route":       func() { _, _ = topo.Route("node0/cpu0", "node0/dram0") },
		"Topology.EffectiveCaps": func() {
			_, _ = topo.EffectiveCaps("node0/cpu0", "node0/dram0")
		},
		"GetTaskView+Merge": func() {
			v := GetTaskView(view)
			v.Merge(view)
			PutTaskView(v)
		},
	} {
		fn()
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s allocates %.0f per call, want 0", name, got)
		}
	}
}
