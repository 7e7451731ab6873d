package placement

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/props"
	"repro/internal/topology"
)

func testbed(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBestFitFigure3(t *testing.T) {
	// The Figure 3 scenario: the *same* "fast local scratch" request maps
	// to different physical devices depending on the compute device.
	topo := testbed(t)
	b := NewBestFit(topo)
	req := props.Requirements{
		Capacity: 1 << 20, Latency: props.LatencyLow,
		Sync: props.Require, ByteAddr: props.Require, PreferLocal: true,
	}
	cpuDev, err := b.PlaceEpoch(req, "node0/cpu0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gpuDev, err := b.PlaceEpoch(req, "node0/gpu0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gpuDev != "node0/gddr0" {
		t.Errorf("GPU scratch on %s, want GDDR", gpuDev)
	}
	if cpuDev == "node0/gddr0" {
		t.Errorf("CPU scratch must not land on GDDR, got %s", cpuDev)
	}
	cpuCaps, _ := topo.EffectiveCaps("node0/cpu0", cpuDev)
	if cpuCaps.Latency > props.LatencyLow.Ceiling() {
		t.Error("CPU placement must satisfy the latency class")
	}
}

// TestStaticIgnoresComputeDevice checks the testbed behind the paper's case
// for runtime placement: a static placement fixed for the CPU — DRAM, whoever
// asks — is measurably worse for the GPU than the GDDR BestFit picks.
func TestStaticIgnoresComputeDevice(t *testing.T) {
	topo := testbed(t)
	dramCaps, _ := topo.EffectiveCaps("node0/gpu0", "node0/dram0")
	gddrCaps, _ := topo.EffectiveCaps("node0/gpu0", "node0/gddr0")
	if dramCaps.Latency <= gddrCaps.Latency {
		t.Error("testbed must make a CPU-fixed placement hurt the GPU")
	}
}

func TestBestFitPersistent(t *testing.T) {
	topo := testbed(t)
	b := NewBestFit(topo)
	req := props.Requirements{Capacity: 1 << 20, Latency: props.LatencyMedium, Persistent: props.Require}
	dev, err := b.PlaceEpoch(req, "node0/cpu0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := topo.Memory(dev)
	if !m.Persistent {
		t.Errorf("persistent request on volatile %s", dev)
	}
	if dev != "node0/pmem0" {
		t.Errorf("medium-latency persistent request should pick PMem, got %s", dev)
	}
}

func TestBestFitConservesPremiumCapacity(t *testing.T) {
	// A don't-care request should not squat on PMem/HBM when DRAM serves it.
	topo := testbed(t)
	b := NewBestFit(topo)
	req := props.Requirements{Capacity: 1 << 20, Latency: props.LatencyMedium}
	dev, err := b.PlaceEpoch(req, "node0/cpu0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := topo.Memory(dev)
	if m.Persistent {
		t.Errorf("scratch request wasted persistent device %s", dev)
	}
}

func TestBestFitNoCandidate(t *testing.T) {
	topo := testbed(t)
	b := NewBestFit(topo)
	// Impossible: persistent AND sub-200ns from a CPU on this testbed.
	req := props.Requirements{Latency: props.LatencyLow, Persistent: props.Require, MaxLatency: 50}
	if _, err := b.PlaceEpoch(req, "node0/cpu0", 0, nil); !errors.Is(err, ErrNoCandidate) {
		t.Errorf("err = %v, want ErrNoCandidate", err)
	}
}

func TestPlaceSharedAddressableByAll(t *testing.T) {
	topo := testbed(t)
	b := NewBestFit(topo)
	req := props.GlobalState.Defaults()
	dev, err := b.PlaceShared(req, []string{"node0/cpu0", "node0/cpu1", "node0/gpu0"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"node0/cpu0", "node0/cpu1", "node0/gpu0"} {
		caps, ok := topo.EffectiveCaps(c, dev)
		if !ok {
			t.Fatalf("%s cannot reach shared placement %s", c, dev)
		}
		if ok, viol := req.Match(caps); !ok {
			t.Errorf("%s violates global-state req on %s: %v", c, dev, viol)
		}
	}
	if _, err := b.PlaceShared(req, nil); err == nil {
		t.Error("empty compute list must fail")
	}
}

func TestRandomIsSeededAndValid(t *testing.T) {
	topo := testbed(t)
	req := props.Requirements{Capacity: 1 << 20, Latency: props.LatencyBulk}
	a := NewRandom(topo, 42)
	b := NewRandom(topo, 42)
	for i := 0; i < 20; i++ {
		da, err := placeByID(a, req, "node0/cpu0", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		db, err := placeByID(b, req, "node0/cpu0", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatal("same seed must give the same placements")
		}
		caps, _ := topo.EffectiveCaps("node0/cpu0", da)
		if ok, _ := req.Match(caps); !ok {
			t.Fatalf("random placement %s violates the request", da)
		}
	}
	if _, err := placeByID(a, props.Requirements{MaxLatency: 1}, "node0/cpu0", 0, nil); !errors.Is(err, ErrNoCandidate) {
		t.Error("impossible request must fail")
	}
}

func TestWorstStillMatchesButScoresLow(t *testing.T) {
	topo := testbed(t)
	w := NewWorst(topo)
	b := NewBestFit(topo)
	req := props.Requirements{Capacity: 1 << 20, Latency: props.LatencyBulk, ByteAddr: props.Require}
	wd, err := placeByID(w, req, "node0/cpu0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := b.PlaceEpoch(req, "node0/cpu0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wCaps, _ := topo.EffectiveCaps("node0/cpu0", wd)
	bCaps, _ := topo.EffectiveCaps("node0/cpu0", bd)
	if ok, _ := req.Match(wCaps); !ok {
		t.Error("worst-fit must still satisfy hard constraints")
	}
	if req.Score(wCaps) >= req.Score(bCaps) {
		t.Error("worst-fit must score below best-fit")
	}
	if _, err := placeByID(w, props.Requirements{MaxLatency: 1}, "node0/cpu0", 0, nil); !errors.Is(err, ErrNoCandidate) {
		t.Error("impossible request must fail")
	}
}

func TestPlacerNames(t *testing.T) {
	topo := testbed(t)
	if NewBestFit(topo).Name() != "best-fit" || NewRandom(topo, 1).Name() != "random" || NewWorst(topo).Name() != "worst-fit" ||
		NewFirstFit(topo).Name() != "first-fit" {
		t.Error("placer names wrong")
	}
}

// Property: best-fit dominates — for any satisfiable request, the device
// best-fit picks scores at least as high as random's, worst-fit's and
// first-fit's picks.
func TestBestFitDominatesProperty(t *testing.T) {
	topo := testbed(t)
	best := NewBestFit(topo)
	rnd := NewRandom(topo, 7)
	worst := NewWorst(topo)
	first := NewFirstFit(topo)
	computes := []string{"node0/cpu0", "node0/cpu1", "node0/gpu0", "node0/tpu0"}
	f := func(latSel, comSel uint8, persist bool, conf bool) bool {
		req := props.Requirements{
			Capacity: 1 << 16,
			Latency:  props.LatencyClass(latSel%4) + 1, // low..bulk
		}
		if persist {
			req.Persistent = props.Require
		}
		req.Confidential = conf
		c := computes[int(comSel)%len(computes)]
		bd, err := best.PlaceEpoch(req, c, 0, nil)
		if err != nil {
			return true // unsatisfiable is fine
		}
		bCaps, _ := topo.EffectiveCaps(c, bd)
		bScore := req.Score(bCaps)
		for _, other := range []placer{rnd, worst, first} {
			od, err := placeByID(other, req, c, 0, nil)
			if err != nil {
				return false // best found one, others must too
			}
			oCaps, _ := topo.EffectiveCaps(c, od)
			if req.Score(oCaps) > bScore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBestFitPlace(b *testing.B) {
	topo := testbed(b)
	p := NewBestFit(topo)
	req := props.PrivateScratch.Defaults()
	req.Capacity = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlaceEpoch(req, "node0/gpu0", 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
