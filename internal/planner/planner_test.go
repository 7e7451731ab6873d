package planner

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
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

func TestSpecValidation(t *testing.T) {
	bad := []AccessSpec{
		{TotalBytes: 0, ChunkBytes: 1},
		{TotalBytes: 10, ChunkBytes: 0},
		{TotalBytes: 10, ChunkBytes: 20},
		{TotalBytes: 10, ChunkBytes: 5, OverlapOpsPerChunk: -1},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %+v must be invalid", s)
		}
	}
	good := AccessSpec{TotalBytes: 100, ChunkBytes: 30}
	if good.Validate() != nil || good.Chunks() != 4 {
		t.Errorf("chunks = %d, want ceil(100/30)=4", good.Chunks())
	}
}

func TestCompilePicksSyncForNearMemory(t *testing.T) {
	topo := testbed(t)
	spec := AccessSpec{TotalBytes: 1 << 20, ChunkBytes: 4096}
	plan, err := Compile(topo, "node0/cpu0", "node0/dram0", spec)
	if err != nil {
		t.Fatal(err)
	}
	// DRAM from the local CPU: per-chunk wire latency (20ns) is tiny vs
	// service time, so deep pipelining buys little; the plan must be
	// shallow (≤2) — with depth 1 meaning plain loads.
	if plan.Depth > 2 {
		t.Errorf("near-memory plan = %s, want shallow", plan)
	}
}

func TestCompilePicksDeepAsyncForFarMemory(t *testing.T) {
	topo := testbed(t)
	spec := AccessSpec{TotalBytes: 1 << 20, ChunkBytes: 4096}
	plan, err := Compile(topo, "node0/cpu0", "memnode0/far0", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Async || plan.Depth < 2 {
		t.Errorf("far-memory plan = %s, want a pipelined async plan", plan)
	}
	// Always async on async-only devices, even at depth 1.
	caps, _ := topo.EffectiveCaps("node0/cpu0", "memnode0/far0")
	if caps.Sync {
		t.Fatal("testbed invariant: far memory is async-only")
	}
}

func TestCompileErrors(t *testing.T) {
	topo := testbed(t)
	spec := AccessSpec{TotalBytes: 100, ChunkBytes: 10}
	if _, err := Compile(topo, "nope", "node0/dram0", spec); err == nil {
		t.Error("unknown compute must fail")
	}
	if _, err := Compile(topo, "node0/cpu0", "nope", spec); err == nil {
		t.Error("unknown device must fail")
	}
	if _, err := Compile(topo, "node0/cpu0", "node0/dram0", AccessSpec{}); err == nil {
		t.Error("invalid spec must fail")
	}
}

// executeAgainst compiles and runs the spec on a freshly allocated region
// pinned to the device, returning the measured virtual time.
func executeAgainst(t *testing.T, topo *topology.Topology, device string, spec AccessSpec, depthOverride int) time.Duration {
	t.Helper()
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mgr.Alloc(region.Spec{
		Name: "scan", Class: props.Custom, Size: spec.TotalBytes,
		Req:   props.Requirements{Latency: props.LatencyBulk, ByteAddr: props.Require},
		Owner: "planner-test", Compute: "node0/cpu0", Device: device, Clock: topo.NewTaskView(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	plan, err := Compile(topo, "node0/cpu0", device, spec)
	if err != nil {
		t.Fatal(err)
	}
	if depthOverride > 0 {
		plan.Depth = depthOverride
		plan.Async = depthOverride > 1
	}
	end, err := Execute(h, 0, plan, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestCompiledPlanBeatsFixedStrategies(t *testing.T) {
	// The compiler's choice must be at least as good as both naive fixed
	// strategies (always depth 1, always depth 8) on both near and far
	// placements.
	spec := AccessSpec{TotalBytes: 256 << 10, ChunkBytes: 4096}
	for _, device := range []string{"node0/dram0", "memnode0/far0"} {
		topo := testbed(t)
		chosen := executeAgainst(t, topo, device, spec, 0)
		topo2 := testbed(t)
		d1 := executeAgainst(t, topo2, device, spec, 1)
		topo3 := testbed(t)
		d8 := executeAgainst(t, topo3, device, spec, 8)
		if chosen > d1 || chosen > d8 {
			t.Errorf("%s: compiled plan (%v) worse than fixed d1 (%v) or d8 (%v)", device, chosen, d1, d8)
		}
	}
}

func TestEstimateMatchesExecution(t *testing.T) {
	// The compiler's cost model replays the simulator, so its estimate
	// must match the measured execution on an uncontended device.
	topo := testbed(t)
	spec := AccessSpec{TotalBytes: 64 << 10, ChunkBytes: 4096}
	plan, err := Compile(topo, "node0/cpu0", "memnode0/far0", spec)
	if err != nil {
		t.Fatal(err)
	}
	measured := executeAgainst(t, topo, "memnode0/far0", spec, plan.Depth)
	diff := float64(measured-plan.Estimated) / float64(plan.Estimated)
	if diff < -0.01 || diff > 0.01 {
		t.Errorf("estimate %v vs measured %v (%.1f%% off)", plan.Estimated, measured, 100*diff)
	}
}

func TestExecuteDeliversAllChunksInOrder(t *testing.T) {
	topo := testbed(t)
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10 * 100
	h, err := mgr.Alloc(region.Spec{
		Name: "data", Class: props.Custom, Size: total,
		Req:   props.Requirements{Latency: props.LatencyBulk, ByteAddr: props.Require},
		Owner: "t", Compute: "node0/cpu0", Device: "node0/dram0", Clock: topo.NewTaskView(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	// Fill with a recognizable pattern.
	pattern := make([]byte, total)
	for i := range pattern {
		pattern[i] = byte(i % 251)
	}
	if _, err := h.WriteAt(0, 0, pattern); err != nil {
		t.Fatal(err)
	}
	spec := AccessSpec{TotalBytes: total, ChunkBytes: 100}
	plan, err := Compile(topo, "node0/cpu0", "node0/dram0", spec)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	_, err = Execute(h, 0, plan, spec, func(chunk int, data []byte) error {
		seen = append(seen, chunk)
		for i, b := range data {
			if b != byte((chunk*100+i)%251) {
				t.Fatalf("chunk %d byte %d corrupted", chunk, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("chunks processed = %d", len(seen))
	}
	for i, c := range seen {
		if c != i {
			t.Fatalf("chunks out of order: %v", seen)
		}
	}
}

func TestExecuteRejectsWrongDevice(t *testing.T) {
	topo := testbed(t)
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mgr.Alloc(region.Spec{
		Name: "x", Class: props.PrivateScratch, Size: 4096,
		Owner: "t", Compute: "node0/cpu0", Clock: topo.NewTaskView(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	spec := AccessSpec{TotalBytes: 4096, ChunkBytes: 1024}
	plan := Plan{Device: "memnode0/far0", Depth: 4, Async: true}
	if _, err := Execute(h, 0, plan, spec, nil); err == nil {
		t.Error("device mismatch must fail")
	}
}

// Property: for any sane spec, the estimate is monotone non-increasing as
// depth doubles on far memory up to the point where bandwidth saturates —
// i.e., deeper never costs more than depth 1.
func TestDeeperNeverWorseThanSyncProperty(t *testing.T) {
	topo := testbed(t)
	comp, _ := topo.Compute("node0/cpu0")
	f := func(chunkSel, totalSel uint16, overlap uint16) bool {
		chunk := int64(chunkSel%8192) + 64
		total := chunk * (1 + int64(totalSel%64))
		spec := AccessSpec{
			TotalBytes: total, ChunkBytes: chunk,
			OverlapOpsPerChunk: float64(overlap % 10000),
		}
		d1, err := estimate(topo, "node0/cpu0", "memnode0/far0", spec, 1, comp.Gops)
		if err != nil {
			return false
		}
		for _, d := range []int{2, 4, 8} {
			dn, err := estimate(topo, "node0/cpu0", "memnode0/far0", spec, d, comp.Gops)
			if err != nil {
				return false
			}
			if dn > d1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Execute with the compiled plan round-trips every byte for
// random region contents.
func TestExecuteRoundtripProperty(t *testing.T) {
	topo := testbed(t)
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placement.NewBestFit(topo)})
	if err != nil {
		t.Fatal(err)
	}
	clk := topo.NewTaskView()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int64(rng.Intn(8192) + 256)
		chunk := int64(rng.Intn(int(total))/4 + 64)
		if chunk > total {
			chunk = total
		}
		h, err := mgr.Alloc(region.Spec{
			Name: "rt", Class: props.Custom, Size: total,
			Req:   props.Requirements{Latency: props.LatencyBulk, ByteAddr: props.Require},
			Owner: "t", Compute: "node0/cpu0", Device: "node0/cxl0", Clock: clk,
		})
		if err != nil {
			return false
		}
		defer h.Release()
		payload := make([]byte, total)
		rng.Read(payload)
		if _, err := h.WriteAt(0, 0, payload); err != nil {
			return false
		}
		spec := AccessSpec{TotalBytes: total, ChunkBytes: chunk}
		plan, err := Compile(topo, "node0/cpu0", "node0/cxl0", spec)
		if err != nil {
			return false
		}
		got := make([]byte, 0, total)
		if _, err := Execute(h, 0, plan, spec, func(_ int, data []byte) error {
			got = append(got, data...)
			return nil
		}); err != nil {
			return false
		}
		if len(got) != int(total) {
			return false
		}
		for i := range got {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

var sinkPlan Plan

func BenchmarkCompile(b *testing.B) {
	topo := testbed(b)
	spec := AccessSpec{TotalBytes: 1 << 20, ChunkBytes: 4096, OverlapOpsPerChunk: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Compile(topo, "node0/cpu0", "memnode0/far0", spec)
		if err != nil {
			b.Fatal(err)
		}
		sinkPlan = p
	}
}
