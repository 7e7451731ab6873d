package topology

import (
	"errors"
	"fmt"
	"sync"
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
	for _, c := range topo.ComputeSet().Devices {
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

// TestIslandRoutes: a linked pair resolves, an unlinked memory device and an
// unknown ID do not, and pricing an access to either says which it was.
func TestIslandRoutes(t *testing.T) {
	topo := island(t)
	if rt, ok := topo.Route("cpu", "dram"); !ok || rt.Path.Latency != time.Microsecond {
		t.Fatalf("cpu→dram = %+v ok=%v, want a 1µs route", rt, ok)
	}
	if _, ok := topo.Route("cpu", "spare"); ok {
		t.Fatal("spare is unlinked and must not resolve")
	}
	if rt, ok := topo.ComputeSet().Route(0, 1); ok || rt != nil {
		t.Fatalf("spare by index = %+v ok=%v, want no route", rt, ok)
	}
	clk := topo.NewTaskView()
	if _, err := clk.AccessTime("cpu", "spare", 0, 64, memsim.Read, memsim.Sequential); err == nil || err.Error() != "topology: no path cpu→spare" {
		t.Errorf("unreachable AccessTime err = %v", err)
	}
	if _, err := clk.AccessTime("cpu", "ghost", 0, 64, memsim.Read, memsim.Sequential); err == nil || err.Error() != `topology: unknown memory device "ghost"` {
		t.Errorf("unknown-device AccessTime err = %v", err)
	}
}

// TestGraphSealsAtFirstRead: building a graph reads nothing from it, and
// each kind of read that derives state from it — a route, a path, effective
// capabilities from a known and from an unregistered compute device, the
// compute set, a task view, the memory list — seals it: AddCompute,
// AddMemory and Connect fail after it and leave the graph as it was.
func TestGraphSealsAtFirstRead(t *testing.T) {
	for name, read := range map[string]func(*Topology){
		"Route":                      func(g *Topology) { g.Route("cpu", "dram") },
		"Path":                       func(g *Topology) { g.Path("cpu", "spare") },
		"EffectiveCaps":              func(g *Topology) { g.EffectiveCaps("cpu", "dram") },
		"EffectiveCaps unregistered": func(g *Topology) { g.EffectiveCaps("ghost", "dram") },
		"ComputeSet":                 func(g *Topology) { g.ComputeSet() },
		"NewTaskView":                func(g *Topology) { g.NewTaskView() },
		"Memories":                   func(g *Topology) { g.Memories() },
	} {
		topo := island(t)
		if _, ok := topo.Compute("cpu"); !ok {
			t.Fatal("cpu must be registered")
		}
		if _, ok := topo.Memory("dram"); !ok {
			t.Fatal("dram must be registered")
		}
		if err := topo.Connect(Link{A: "cpu", B: "spare", Kind: LinkNIC, Latency: time.Microsecond, Bandwidth: 1e9}); err != nil {
			t.Fatalf("%s: a lookup by ID must not seal the graph: %v", name, err)
		}
		computes, mems, links := len(topo.computeOrder), len(topo.mems), len(topo.adj["cpu"])
		read(topo)
		late, err := memsim.NewDevice("late", memsim.DRAMSpec())
		if err != nil {
			t.Fatal(err)
		}
		for op, err := range map[string]error{
			"AddCompute": topo.AddCompute(&ComputeDevice{ID: "ghost", Kind: CPU, Gops: 1}),
			"AddMemory":  topo.AddMemory(late),
			"Connect":    topo.Connect(Link{A: "cpu", B: "late", Kind: LinkPCIe, Latency: time.Microsecond, Bandwidth: 1e9}),
		} {
			if !errors.Is(err, errSealed) {
				t.Errorf("after %s: %s err = %v, want the graph sealed", name, op, err)
			}
		}
		if len(topo.computeOrder) != computes || len(topo.computes) != computes || len(topo.mems) != mems ||
			len(topo.memIdx) != mems || len(topo.adj["cpu"]) != links || len(topo.adj["late"]) != 0 {
			t.Errorf("after %s: a refused change altered the graph", name)
		}
		if _, ok := topo.EffectiveCaps("ghost", "dram"); ok {
			t.Errorf("after %s: a refused compute device answers", name)
		}
	}
}

// TestViewsOfDifferentLengthsFold: queue state shorter than the topology —
// a view reset to idle grows back only as far as it is used — folds into a
// longer one and takes a longer one in, in both directions.
func TestViewsOfDifferentLengthsFold(t *testing.T) {
	topo := island(t)
	rt, ok := topo.Route("cpu", "dram")
	if !ok {
		t.Fatal("cpu→dram must resolve")
	}
	view := topo.NewTaskView()
	view.AccessRoute(rt, 0, 4096, memsim.Write, memsim.Sequential)
	view.busy[1] = time.Minute // a backlog on spare, which no route reaches
	short := &TaskView{topo: topo, busy: make([]time.Duration, 1)}
	short.Merge(view)
	if busyUntil(short, "spare") != time.Minute || busyUntil(short, "dram") != busyUntil(view, "dram") {
		t.Error("Merge of a longer view must grow the shorter one")
	}
	view.Merge(&TaskView{topo: topo, busy: []time.Duration{time.Hour}})
	if busyUntil(view, "dram") != time.Hour || busyUntil(view, "spare") != time.Minute {
		t.Error("Merge of a shorter view must keep the longer one's tail")
	}
	// A reused view takes the source's queue state whole: what it held before
	// — here a backlog on spare that the source does not have — is gone.
	reused := topo.NewTaskView()
	reused.Reset(view)
	if busyUntil(reused, "dram") != time.Hour || busyUntil(reused, "spare") != time.Minute {
		t.Error("Reset must copy the source's queue state")
	}
	reused.Reset(&TaskView{topo: topo, busy: []time.Duration{time.Second}})
	if busyUntil(reused, "dram") != time.Second || busyUntil(reused, "spare") != 0 {
		t.Error("Reset must drop the queue state the view held before")
	}
	reused.Reset(nil)
	if busyUntil(reused, "dram") != 0 || busyUntil(reused, "spare") != 0 {
		t.Error("Reset(nil) must drain every queue")
	}
}

// busyUntil reads a clock's queue drain time for a memory device by ID; an
// unknown ID is idle.
func busyUntil(clk *TaskView, memID string) time.Duration {
	i, ok := clk.topo.memIdx[memID]
	if !ok {
		return 0
	}
	return clk.BusyAt(i)
}

// TestViewMatchesHandArithmetic: a view prices an access sequence exactly as
// the queue arithmetic written out by hand — one FIFO queue per device behind
// the path latency, stretched by a narrow path.
func TestViewMatchesHandArithmetic(t *testing.T) {
	topo := testbed(t)
	view := topo.NewTaskView()
	ref := map[string]time.Duration{} // drain time per device, by hand
	now := time.Duration(0)
	for i, mem := range []string{"node0/dram0", "memnode0/far0", "node0/dram0", "node0/ssd0", "node0/dram0"} {
		size, kind := int64(64<<i), memsim.AccessKind(i%2)
		rt, ok := topo.Route("node0/gpu0", mem)
		if !ok {
			t.Fatalf("gpu0→%s must resolve", mem)
		}
		ref[mem] = rt.Mem.Queued(ref[mem], now+rt.Path.Latency, size, kind, memsim.Random)
		want := ref[mem] + rt.stretch(size) + rt.Path.Latency
		if v, _ := view.AccessTime("node0/gpu0", mem, now, size, kind, memsim.Random); v != want {
			t.Errorf("access %d to %s: by hand %v, view %v", i, mem, want, v)
		}
		if busyUntil(view, mem) != ref[mem] {
			t.Errorf("access %d to %s: queue drain time %v, by hand %v", i, mem, busyUntil(view, mem), ref[mem])
		}
		now += time.Microsecond
	}
}

// TestViewLedger: a view counts what is priced through it and what is
// deferred to it, shows none of it until it is published, and publishes each
// count once — to a counter even a sum of zero, which is what lists it. A
// merge and a reset copy take the queue state and leave the ledger; a reset
// view publishes what its own ledger still held. What does not fit the view's
// fixed storage is counted at once instead.
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
	merged, copied := topo.NewTaskView(), new(TaskView)
	merged.Merge(view)
	copied.Reset(view)
	if busyUntil(merged, dram.ID) != busyUntil(view, dram.ID) || busyUntil(copied, dram.ID) != busyUntil(view, dram.ID) {
		t.Error("copies must carry the queue state")
	}
	merged.Publish()
	copied.Reset(merged)
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
	view.Defer(counters[0], 1)
	view.Reset(nil)
	if got := reg.Counter(telemetry.LayerRuntime, "c0"); got != 4 {
		t.Errorf("counter 0 = %d after a Reset, want 4: the ledger it held is published", got)
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
	view, reused := topo.NewTaskView(), topo.NewTaskView()
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
		"TaskView.Reset+Merge": func() {
			reused.Reset(view)
			reused.Merge(view)
		},
		"TaskView.Reset to idle": func() { reused.Reset(nil) },
	} {
		fn()
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s allocates %.0f per call, want 0", name, got)
		}
	}
}

// TestColdRoutesResolveOncePerPair: eight goroutines resolve every
// compute-to-memory pair of a fresh graph at once, half by ID and half by
// index, and all get the same route object for a pair. Run it under -race: a
// hit reads the route table without a lock.
func TestColdRoutesResolveOncePerPair(t *testing.T) {
	topo := testbed(t)
	comps, mems := topo.ComputeSet().Devices, topo.Memories()
	const workers = 8
	got := make([][]*Route, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, c := range comps {
				for j, m := range mems {
					var rt *Route
					if w%2 == 0 {
						rt, _ = topo.Route(c.ID, m.ID)
					} else {
						rt, _ = topo.ComputeSet().Route(i, j)
					}
					got[w] = append(got[w], rt)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		for p, rt := range got[w] {
			if rt != got[0][p] {
				c, m := comps[p/len(mems)], mems[p%len(mems)]
				t.Errorf("%s→%s: worker %d resolved another route object than worker 0", c.ID, m.ID, w)
			}
		}
	}
}
