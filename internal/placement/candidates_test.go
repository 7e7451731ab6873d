package placement

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/topology"
)

// referencePlace is the placement decision computed from scratch, the way
// BestFit did before it kept candidate lists: every device's capabilities,
// hard-constraint match and score derived on the spot. The cached optimizer
// must reproduce it decision for decision.
func referencePlace(topo *topology.Topology, req props.Requirements, computeID string, now time.Duration, clk *topology.TaskView) string {
	best, bestScore := "", 0.0
	for i, dev := range topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		caps, ok := topo.EffectiveCaps(computeID, dev.ID)
		if !ok {
			continue
		}
		if ok, _ := req.Match(caps); !ok {
			continue
		}
		s := req.Score(caps)
		if clk != nil {
			s -= backlogPenalty(clk.BusyAt(i), now)
		}
		if best == "" || s > bestScore {
			best, bestScore = dev.ID, s
		}
	}
	return best
}

// TestCachedBestFitMatchesFresh drives one long-lived BestFit through a
// sequence that interleaves placements with everything that may change
// their outcome — new links, new memory and compute devices, a device
// filling up, a backlog appearing on a clock view — and checks every decision
// (device, error text) against a BestFit built fresh for that one call and
// against the from-scratch reference.
func TestCachedBestFitMatchesFresh(t *testing.T) {
	topo := testbed(t)
	cached := NewBestFit(topo)

	reqs := []props.Requirements{
		{Capacity: 1 << 20},
		{Capacity: 1 << 20, Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require, PreferLocal: true},
		{Capacity: 1 << 16, Latency: props.LatencyMedium, Persistent: props.Require},
		{Capacity: 1 << 16, Latency: props.LatencyMedium, Coherent: props.Require, Confidential: true},
		{Capacity: 1 << 12, MaxLatency: 150 * time.Nanosecond},
		{Capacity: 1 << 12, MinBandwidth: 500e9},
		{Capacity: 1 << 12, Latency: props.LatencyLow, Persistent: props.Require}, // nothing fits
		{Latency: props.LatencyHigh, Sync: props.Forbid},                          // no capacity demand
	}
	computes := []string{"node0/cpu0", "node0/cpu1", "node0/gpu0", "node0/fpga0", "nowhere/cpu9"}

	step := 0
	check := func(label string, now time.Duration, clk *topology.TaskView) {
		t.Helper()
		for _, comp := range computes {
			for _, req := range reqs {
				step++
				fresh := NewBestFit(topo)
				var got, want string
				var gotErr, wantErr error
				// Place and a clockless PlaceEpoch are blind to backlog.
				var refClk *topology.TaskView
				switch step % 3 {
				case 0:
					got, gotErr = cached.Place(req, comp)
					want, wantErr = fresh.Place(req, comp)
				case 1:
					got, gotErr = cached.PlaceEpoch(req, comp, now, nil)
					want, wantErr = fresh.PlaceEpoch(req, comp, now, nil)
				default:
					refClk = clk
					got, gotErr = cached.PlaceEpoch(req, comp, now, clk)
					want, wantErr = fresh.PlaceEpoch(req, comp, now, clk)
				}
				refDev := referencePlace(topo, req, comp, now, refClk)
				if got != want || got != refDev {
					t.Fatalf("%s: %s from %s: cached %q, fresh %q, reference %q", label, req, comp, got, want, refDev)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: %s from %s: cached error %q, fresh error %q", label, req, comp, gotErr, wantErr)
				}
				if (gotErr != nil) != (refDev == "") {
					t.Fatalf("%s: %s from %s: error %v but reference chose %q", label, req, comp, gotErr, refDev)
				}
			}
		}
	}

	clk := topo.NewTaskView()
	check("initial", 0, clk)
	check("warm", 0, clk) // the same shapes again, now from resolved lists

	// A backlog on the clock, then on a copy of it.
	rt, ok := topo.Route("node0/cpu0", "node0/dram0")
	if !ok {
		t.Fatal("no route to dram0")
	}
	clk.AccessRoute(rt, 0, 64<<20, memsim.Write, memsim.Sequential)
	check("backlog", 0, clk)
	view := topo.NewTaskView()
	view.Reset(clk)
	view.AccessRoute(rt, 0, 256<<20, memsim.Write, memsim.Sequential)
	check("copied backlog", 10*time.Microsecond, view)

	// A device fills up: free capacity is read per call, never resolved.
	hbm, _ := topo.Memory("node0/hbm0")
	if err := hbm.Reserve(hbm.Free() - 1<<14); err != nil {
		t.Fatal(err)
	}
	check("hbm nearly full", 0, clk)
	hbm.Release(1 << 30)
	check("hbm freed", 0, clk)

	// The graph changes under the resolved lists.
	if err := topo.Connect(topology.Link{A: "node0/cpu1", B: "node0/hbm0", Kind: topology.LinkOnChip, Latency: 2 * time.Nanosecond, Bandwidth: 900e9, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	check("after Connect", 0, clk)
	fast, err := memsim.NewDevice("node0/fast0", memsim.HBMSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddMemory(fast); err != nil {
		t.Fatal(err)
	}
	check("after AddMemory (unlinked)", 0, clk)
	if err := topo.Connect(topology.Link{A: "node0/cpu0", B: "node0/fast0", Kind: topology.LinkOnChip, Latency: time.Nanosecond, Bandwidth: 1000e9, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	check("after AddMemory+Connect", 0, topo.NewTaskView())
	if err := topo.AddCompute(&topology.ComputeDevice{ID: "nowhere/cpu9", Kind: topology.CPU, Gops: 100}); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(topology.Link{A: "nowhere/cpu9", B: "fabric", Kind: topology.LinkNIC, Latency: time.Microsecond, Bandwidth: 25e9}); err != nil {
		t.Fatal(err)
	}
	check("after AddCompute", 0, clk)
}

// TestAddComputeAloneInvalidates: a compute device that becomes known
// without any link change must stop answering from the list resolved while
// it was unknown (EffectiveCaps refuses an unregistered compute ID).
func TestAddComputeAloneInvalidates(t *testing.T) {
	topo := topology.New()
	dev, err := memsim.NewDevice("m", memsim.DRAMSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddMemory(dev); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(topology.Link{A: "c", B: "m", Kind: topology.LinkMemBus, Latency: time.Nanosecond, Bandwidth: 100e9, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	b := NewBestFit(topo)
	req := props.Requirements{Capacity: 4096}
	if _, err := b.Place(req, "c"); err == nil {
		t.Fatal("placement from an unregistered compute device must fail")
	}
	if err := topo.AddCompute(&topology.ComputeDevice{ID: "c", Kind: topology.CPU, Gops: 1}); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Place(req, "c"); err != nil || got != "m" {
		t.Fatalf("after AddCompute: %q, %v; want m", got, err)
	}
}

// TestCandidateCacheBounded: request shapes that never repeat (a bandwidth
// floor computed per request) must not grow the cache past its bound, and
// the optimizer keeps answering correctly across the drops.
func TestCandidateCacheBounded(t *testing.T) {
	topo := testbed(t)
	b := NewBestFit(topo)
	hot := props.Requirements{Capacity: 1 << 20, Latency: props.LatencyLow}
	want, err := b.Place(hot, "node0/cpu0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*maxShapes; i++ {
		req := props.Requirements{Capacity: 4096, MinBandwidth: float64(i + 1)}
		if _, err := b.Place(req, "node0/cpu0"); err != nil {
			t.Fatal(err)
		}
		b.mu.Lock()
		n := len(b.shapes)
		b.mu.Unlock()
		if n > maxShapes {
			t.Fatalf("after %d distinct shapes the cache holds %d lists, bound %d", i+1, n, maxShapes)
		}
	}
	if got, err := b.Place(hot, "node0/cpu0"); err != nil || got != want {
		t.Fatalf("after the cache was dropped: %q, %v; want %q", got, err, want)
	}
}

// TestConcurrentPlacementsAgree: goroutines that resolve and read the same
// shapes at once (and push the cache through its bound while they do) get
// the decisions a single caller gets. Run under -race.
func TestConcurrentPlacementsAgree(t *testing.T) {
	topo := testbed(t)
	reqs := make([]props.Requirements, 64)
	for i := range reqs {
		reqs[i] = props.Requirements{Capacity: 4096, Latency: props.LatencyClass(i % 5), MinBandwidth: float64(i/5) * 1e9}
	}
	want := make([]string, len(reqs))
	seq := NewBestFit(topo)
	for i, req := range reqs {
		want[i], _ = seq.Place(req, "node0/cpu0")
	}
	shared := NewBestFit(topo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40*len(reqs); n++ {
				i := (n + g*7) % len(reqs)
				if got, _ := shared.Place(reqs[i], "node0/cpu0"); got != want[i] {
					t.Errorf("goroutine %d: %s placed on %q, want %q", g, reqs[i], got, want[i])
					return
				}
				if g == 0 { // one goroutine floods the cache with one-off shapes
					shared.Place(props.Requirements{Capacity: 64, MaxLatency: time.Duration(n+1) * time.Second}, "node0/cpu1") //nolint:errcheck
				}
			}
		}(g)
	}
	wg.Wait()
}

// warmPlaceEpoch returns one placement on the reference testbed — the
// per-output-allocation decision of the serving path — with its shape
// resolved, so that what remains is the steady state.
func warmPlaceEpoch(tb testing.TB) func() {
	topo := testbed(tb)
	bf := NewBestFit(topo)
	view := topo.NewTaskView()
	req := props.Requirements{Capacity: 1 << 16, Latency: props.LatencyMedium}
	place := func() {
		if _, err := bf.PlaceEpoch(req, "node0/cpu0", 0, view); err != nil {
			tb.Fatal(err)
		}
	}
	place()
	return place
}

// BenchmarkPlaceEpoch is one warm placement. It must not allocate.
func BenchmarkPlaceEpoch(b *testing.B) {
	place := warmPlaceEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
	}
}

// TestPlaceEpochAllocatesNothing pins the benchmark's allocation claim in
// the ordinary test run.
func TestPlaceEpochAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(200, warmPlaceEpoch(t)); n != 0 {
		t.Fatalf("a warm PlaceEpoch allocates %v objects, want 0", n)
	}
}
