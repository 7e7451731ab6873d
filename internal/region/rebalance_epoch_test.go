package region

import (
	"sync"
	"testing"
	"time"

	"repro/internal/props"
	"repro/internal/topology"
)

// busySnapshot captures every memory device's queue drain time in clk.
func busySnapshot(topo *topology.Topology, clk *topology.TaskView) []time.Duration {
	out := make([]time.Duration, len(topo.Memories()))
	for i := range out {
		out[i] = clk.BusyAt(i)
	}
	return out
}

// heatRegion drives enough reads through a handle to clear the default
// promotion threshold.
func heatRegion(t *testing.T, h *Handle) {
	t.Helper()
	buf := make([]byte, 256)
	for i := 0; i < 32; i++ {
		if f := h.ReadAsync(0, 0, buf); f.err != nil {
			t.Fatal(f.err)
		}
	}
}

// TestRebalanceInPricesThroughEpoch pins the property that makes the
// maintenance sweep safe to run concurrently with serving: handed a private
// clock view, the sweep's migrations advance only that view's device queues,
// leaving the queues of the clock the region's accesses run on exactly as
// they were. A sweep with no clock at all is refused.
func TestRebalanceInPricesThroughEpoch(t *testing.T) {
	m := newManager(t)
	serving := m.topo.NewTaskView()
	h := mustAlloc(t, m, Spec{
		Name: "hot-index", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0", Clock: serving,
	})
	defer h.Release()
	heatRegion(t, h)

	topo := m.topo
	before := busySnapshot(topo, serving)
	sweep := topo.NewTaskView()
	stats, err := m.RebalanceIn(sweep, 0, RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Promoted != 1 || stats.Cost <= 0 {
		t.Fatalf("a sweep on its own view must still promote with a real cost: %+v", stats)
	}
	// The migration's transfer landed on the sweep's clock...
	var sweepBusy time.Duration
	for _, b := range busySnapshot(topo, sweep) {
		sweepBusy = max(sweepBusy, b)
	}
	if sweepBusy <= 0 {
		t.Error("migration must have advanced the sweep view's device queues")
	}
	// ...and the serving clock is untouched: a concurrently serving batch
	// would never observe the sweep's backlog.
	for i, b := range busySnapshot(topo, serving) {
		if b != before[i] {
			t.Errorf("serving queue of %s moved %v -> %v during a sweep on its own view", topo.Memories()[i].ID, before[i], b)
		}
	}

	// A sweep needs a clock to price its migrations on: without one it is
	// refused before it moves anything.
	heatRegion(t, h)
	if _, err := m.RebalanceIn(nil, 0, RebalancePolicy{}); err == nil {
		t.Error("a sweep without a clock must be refused")
	}
	if heat, err := m.Heat(h.ID()); err != nil || heat == 0 {
		t.Errorf("a refused sweep decayed heat to %d (%v)", heat, err)
	}
}

// TestRebalanceInConcurrentWithAccesses runs sweeps, each on its own view, while
// other goroutines allocate, access, and release regions — the serving
// shape. Run under -race this pins the sweep's locking.
func TestRebalanceInConcurrentWithAccesses(t *testing.T) {
	m := newManager(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 128)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h, err := m.Alloc(Spec{
					Name: "w", Class: props.Custom, Size: 2048,
					Owner: Owner(rune('a' + g)), Compute: "node0/cpu0",
					Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
					Device: "memnode0/far0", Clock: clockOf(m),
				})
				if err != nil {
					continue
				}
				for k := 0; k < 10; k++ {
					h.ReadAsync(0, 0, buf)
				}
				h.Release()
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if _, err := m.RebalanceIn(m.topo.NewTaskView(), time.Duration(i)*time.Millisecond, RebalancePolicy{}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
