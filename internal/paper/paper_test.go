package paper

import (
	"fmt"
	"strings"
	"testing"
)

func gen(t *testing.T, id string) *Artifact {
	t.Helper()
	a, err := Generate(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if a.ID != id || a.Title == "" || a.Text == "" {
		t.Fatalf("%s: malformed artifact %+v", id, a)
	}
	return a
}

// TestRegistryCoversAllIDs: the artifact list names each ID once, every
// listed artifact generates under its own ID, and an unknown ID fails.
func TestRegistryCoversAllIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("artifact %s listed twice", id)
		}
		seen[id] = true
		gen(t, id)
	}
	if _, err := Generate("nope"); err == nil {
		t.Error("unknown artifact must fail")
	}
}

func TestTable1Shape(t *testing.T) {
	a := gen(t, "table1")
	m := a.Metrics
	// The paper's ordinal rankings must hold in the measured numbers.
	latOrder := []string{"Cache", "DRAM", "CXL-DRAM", "PMem", "Disagg. Mem.", "SSD", "HDD"}
	for i := 1; i < len(latOrder); i++ {
		lo, hi := m["latency_ns/"+latOrder[i-1]], m["latency_ns/"+latOrder[i]]
		if hi <= lo {
			t.Errorf("latency(%s)=%.0f must exceed latency(%s)=%.0f", latOrder[i], hi, latOrder[i-1], lo)
		}
	}
	bwOrder := []string{"HDD", "SSD", "Disagg. Mem.", "CXL-DRAM", "DRAM", "HBM"}
	for i := 1; i < len(bwOrder); i++ {
		lo, hi := m["bandwidth_bps/"+bwOrder[i-1]], m["bandwidth_bps/"+bwOrder[i]]
		if hi <= lo {
			t.Errorf("bandwidth(%s)=%.0f must exceed bandwidth(%s)=%.0f", bwOrder[i], hi, bwOrder[i-1], lo)
		}
	}
	for _, row := range []string{"Cache", "HBM", "DRAM", "PMem", "CXL-DRAM", "Disagg. Mem.", "SSD", "HDD"} {
		if !strings.Contains(a.Text, row) {
			t.Errorf("rendered table missing row %q", row)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	a := gen(t, "table2")
	ps := a.Metrics["access_ns/Private Scratch"]
	gs := a.Metrics["access_ns/Global State"]
	gsc := a.Metrics["access_ns/Global Scratch"]
	if ps <= 0 || gs <= 0 || gsc <= 0 {
		t.Fatalf("all three classes must be measured: %v", a.Metrics)
	}
	// Private scratch is the fastest tier.
	if ps > gs || ps > gsc {
		t.Errorf("private scratch (%.0fns) must be the cheapest access (gs=%.0f, gsc=%.0f)", ps, gs, gsc)
	}
}

func TestTable3Shape(t *testing.T) {
	a := gen(t, "table3")
	if a.Metrics["placements"] < 12 {
		t.Errorf("want all 12 Table 3 cells placed, got %.0f\n%s", a.Metrics["placements"], a.Text)
	}
	for _, app := range []string{"DBMS", "ML/AI", "HPC", "Streaming"} {
		if !strings.Contains(a.Text, app) {
			t.Errorf("missing app row %s", app)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	a := gen(t, "figure1")
	if a.Metrics["pooled_admitted"] <= a.Metrics["static_admitted"] {
		t.Errorf("pooling must admit more jobs: %v", a.Metrics)
	}
	if a.Metrics["pooled_util"] <= a.Metrics["static_util"] {
		t.Errorf("pooling must raise utilization: %v", a.Metrics)
	}
}

func TestFigure2Shape(t *testing.T) {
	a := gen(t, "figure2")
	if a.Metrics["property_violations"] != 0 {
		t.Errorf("hospital run violated %v declared properties\n%s", a.Metrics["property_violations"], a.Text)
	}
	if a.Metrics["makespan_ns"] <= 0 {
		t.Error("makespan must be positive")
	}
}

func TestFigure3Shape(t *testing.T) {
	a := gen(t, "figure3")
	// The same request maps to GDDR for the GPU, TPU-HBM for the TPU, and
	// something CPU-local for the CPU.
	if a.Metrics["mapped/node0/gpu0→node0/gddr0"] != 1 {
		t.Errorf("GPU must map to GDDR:\n%s", a.Text)
	}
	if a.Metrics["mapped/node0/tpu0→node0/tpuhbm0"] != 1 {
		t.Errorf("TPU must map to TPU-HBM:\n%s", a.Text)
	}
	if a.Metrics["mapped/node0/cpu0→node0/gddr0"] == 1 {
		t.Errorf("CPU must not map to GDDR:\n%s", a.Text)
	}
}

func TestFigure4Shape(t *testing.T) {
	a := gen(t, "figure4")
	// Zero-copy transfer must be free; copies must grow with size.
	for _, size := range []int64{64 << 10, 64 << 20} {
		tr := a.Metrics["transfer_ns/"+itoa(size)]
		cp := a.Metrics["copy_ns/"+itoa(size)]
		if tr != 0 {
			t.Errorf("transfer at %d bytes cost %.0fns, want 0 (zero copy)", size, tr)
		}
		if cp <= 0 {
			t.Errorf("copy at %d bytes must cost time", size)
		}
	}
	if a.Metrics["copy_ns/67108864"] <= a.Metrics["copy_ns/65536"] {
		t.Error("copy cost must grow with size")
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestClaimNUMAShape(t *testing.T) {
	a := gen(t, "claim-numa")
	s := a.Metrics["slowdown"]
	if s < 1.5 || s > 3.5 {
		t.Errorf("NUMA slowdown %.2f× out of the paper's 'up to 3×' band", s)
	}
}

func TestClaimPlacementShape(t *testing.T) {
	a := gen(t, "claim-placement")
	s := a.Metrics["slowdown"]
	if s < 2 {
		t.Errorf("naive placement slowdown %.2f× — the claim needs ≥2×\n%s", s, a.Text)
	}
}

func TestClaimUtilizationShape(t *testing.T) {
	a := gen(t, "claim-util")
	su := a.Metrics["static_util"]
	if su < 0.40 || su > 0.70 {
		t.Errorf("static utilization %.1f%% outside the paper's cited band", 100*su)
	}
	if a.Metrics["pooled_util"] <= su {
		t.Error("pooled must beat static utilization")
	}
}

func TestClaimFaultShape(t *testing.T) {
	a := gen(t, "claim-fault")
	ro := a.Metrics["replication_overhead"]
	eo := a.Metrics["erasure_overhead"]
	if ro < 2.9 || ro > 3.1 {
		t.Errorf("3-replication overhead %.2f, want ≈3", ro)
	}
	if eo >= ro || eo > 1.8 {
		t.Errorf("erasure overhead %.2f must be ≈1.5 and below replication", eo)
	}
	if a.Metrics["erasure_degraded_ns"] <= a.Metrics["replication_degraded_ns"] {
		t.Error("erasure degraded reads must be slower than replication's read-any (the Carbink trade-off)")
	}
}

func TestClaimSwizzleShape(t *testing.T) {
	a := gen(t, "claim-swizzle")
	if a.Metrics["speedup"] < 2 {
		t.Errorf("swizzling speedup %.2f×, want ≥2× on a 90/10 skew\n%s", a.Metrics["speedup"], a.Text)
	}
	if a.Metrics["swizzle_local_hits"] == 0 {
		t.Error("swizzling must convert remote hits to local hits")
	}
}

func TestAblationAsyncShape(t *testing.T) {
	a := gen(t, "ablation-async")
	if a.Metrics["speedup"] < 1.5 {
		t.Errorf("async pipeline speedup %.2f×, want ≥1.5×\n%s", a.Metrics["speedup"], a.Text)
	}
}

func TestAblationSchedShape(t *testing.T) {
	a := gen(t, "ablation-sched")
	heft := a.Metrics["makespan_ns/HEFT"]
	fifo := a.Metrics["makespan_ns/FIFO"]
	rr := a.Metrics["makespan_ns/round-robin"]
	if heft <= 0 || fifo <= 0 || rr <= 0 {
		t.Fatalf("metrics missing: %v", a.Metrics)
	}
	if heft >= fifo {
		t.Errorf("HEFT (%.0f) must beat FIFO (%.0f)", heft, fifo)
	}
}

func TestAblationCoherenceShape(t *testing.T) {
	a := gen(t, "ablation-coherence")
	if a.Metrics["ratio"] <= 1 {
		t.Errorf("shared ownership must cost more than exclusive: %v", a.Metrics)
	}
	if a.Metrics["invalidations"] < 100 {
		t.Errorf("ping-pong must generate invalidations, got %.0f", a.Metrics["invalidations"])
	}
}

func TestAllArtifactsRenderDeterministically(t *testing.T) {
	for _, id := range IDs() {
		a1 := gen(t, id)
		a2 := gen(t, id)
		if a1.Text != a2.Text {
			t.Errorf("%s renders nondeterministically", id)
		}
	}
}

func TestAblationTieringShape(t *testing.T) {
	a := gen(t, "ablation-tiering")
	if a.Metrics["speedup"] < 2 {
		t.Errorf("tiering speedup %.2f×, want ≥2× on a 90/10 skew\n%s", a.Metrics["speedup"], a.Text)
	}
	if a.Metrics["promotions"] < 1 {
		t.Error("tiering must promote the hot regions")
	}
}

func TestAblationPlannerShape(t *testing.T) {
	a := gen(t, "ablation-planner")
	for _, dev := range []string{"node0/dram0", "node0/cxl0", "memnode0/far0"} {
		plan := a.Metrics["plan_ns/"+dev]
		d1 := a.Metrics["d1_ns/"+dev]
		d8 := a.Metrics["d8_ns/"+dev]
		if plan <= 0 || d1 <= 0 || d8 <= 0 {
			t.Fatalf("%s: missing metrics %v", dev, a.Metrics)
		}
		if plan > d1 || plan > d8 {
			t.Errorf("%s: compiled plan (%.0f) must not lose to fixed d1 (%.0f) or d8 (%.0f)", dev, plan, d1, d8)
		}
	}
	// On far memory the compiled plan must clearly beat blocking access.
	if a.Metrics["d1_ns/memnode0/far0"]/a.Metrics["plan_ns/memnode0/far0"] < 1.5 {
		t.Errorf("far-memory plan should be ≥1.5× over sync:\n%s", a.Text)
	}
}

func TestAblationMultiJobShape(t *testing.T) {
	a := gen(t, "ablation-multijob")
	if a.Metrics["speedup"] < 1.5 {
		t.Errorf("concurrent serving speedup %.2f×, want ≥1.5×\n%s", a.Metrics["speedup"], a.Text)
	}
	if a.Metrics["worst_stretch"] < 0.99 {
		t.Errorf("stretch %.2f < 1 is impossible (concurrency cannot beat isolation per job)", a.Metrics["worst_stretch"])
	}
}

func TestAblationRecoveryShape(t *testing.T) {
	a := gen(t, "ablation-recovery")
	if a.Metrics["speedup"] < 1.5 {
		t.Errorf("checkpointed recovery speedup %.2f×, want ≥1.5× (failure at pipeline end)\n%s", a.Metrics["speedup"], a.Text)
	}
	if a.Metrics["attempts"] != 2 {
		t.Errorf("attempts = %.0f, want 2", a.Metrics["attempts"])
	}
}

func TestFigure1SweepShape(t *testing.T) {
	a := gen(t, "figure1-sweep")
	// At every load point, pooled waits must not exceed static's.
	points := 0
	for k, v := range a.Metrics {
		if len(k) > 15 && k[:15] == "static_wait_ns/" {
			key := k[15:]
			if pooled, ok := a.Metrics["pooled_wait_ns/"+key]; !ok || pooled > v {
				t.Errorf("load %s: pooled wait %.0f exceeds static %.0f", key, pooled, v)
			}
			points++
		}
	}
	if points < 5 {
		t.Errorf("sweep has %d points, want ≥5", points)
	}
	// The gap must widen with load: static wait at the top point dwarfs the
	// bottom point's.
	if a.Metrics["static_wait_ns/load_1.04"] < 100*a.Metrics["static_wait_ns/load_0.16"]+1 {
		t.Errorf("static queueing must explode with load:\n%s", a.Text)
	}
}

func TestTable1SweepShape(t *testing.T) {
	a := gen(t, "table1-sweep")
	// Latency-bound regime: far memory orders of magnitude behind DRAM.
	if a.Metrics["far_vs_dram_small"] < 10 {
		t.Errorf("at 64B far/DRAM = %.1f×, want ≫10×\n%s", a.Metrics["far_vs_dram_small"], a.Text)
	}
	// Bandwidth-bound regime: the gap collapses toward the bandwidth ratio.
	if a.Metrics["far_vs_dram_large"] > 20 {
		t.Errorf("at 64MiB far/DRAM = %.1f×, want the crossover to compress it\n%s", a.Metrics["far_vs_dram_large"], a.Text)
	}
	if a.Metrics["far_vs_dram_large"] >= a.Metrics["far_vs_dram_small"] {
		t.Error("the ratio must shrink with size (latency→bandwidth regime)")
	}
	// Monotone in size per device.
	for _, dev := range []string{"DRAM", "CXL-DRAM", "Disagg.", "SSD"} {
		prev := 0.0
		for _, size := range []int64{64, 4 << 10, 256 << 10, 4 << 20, 64 << 20} {
			v := a.Metrics[fmt.Sprintf("ns/%s/%d", dev, size)]
			if v < prev { // block devices plateau below one block
				t.Errorf("%s: access time not monotone at %d", dev, size)
			}
			prev = v
		}
	}
}
