package paper

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/topology"
)

// Table1Sweep extends Table 1 into an access-size sweep: the effective
// access time of representative tiers (DRAM, CXL-DRAM, far memory, SSD)
// from a CPU across sizes 64 B → 64 MiB. Small accesses are latency-bound
// (the tiers differ by orders of magnitude), large ones bandwidth-bound
// (the tiers converge toward their bandwidth ratios) — the crossovers are
// exactly what drives the runtime's sync-vs-async and chunking decisions.
func Table1Sweep() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	const cpu = "node0/cpu0"
	devices := []struct{ label, id string }{
		{"DRAM", "node0/dram0"},
		{"CXL-DRAM", "node0/cxl0"},
		{"Disagg.", "memnode0/far0"},
		{"SSD", "node0/ssd0"},
	}
	sizes := []int64{64, 4 << 10, 256 << 10, 4 << 20, 64 << 20}
	header := []string{"Access size"}
	for _, d := range devices {
		header = append(header, d.label)
	}
	tbl := &table{header: header}
	metrics := map[string]float64{}
	for _, size := range sizes {
		row := []string{fmtBytes(size)}
		for _, d := range devices {
			done, err := topo.NewTaskView().AccessTime(cpu, d.id, 0, size, memsim.Read, memsim.Sequential)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(float64(done)))
			metrics[fmt.Sprintf("ns/%s/%d", d.label, size)] = float64(done)
		}
		tbl.add(row...)
	}
	// Headline crossover metric: DRAM:far ratio at 64 B vs 64 MiB.
	small := metrics["ns/Disagg./64"] / metrics["ns/DRAM/64"]
	large := metrics[fmt.Sprintf("ns/Disagg./%d", int64(64<<20))] / metrics[fmt.Sprintf("ns/DRAM/%d", int64(64<<20))]
	metrics["far_vs_dram_small"] = small
	metrics["far_vs_dram_large"] = large
	tbl.add("far/DRAM ratio", fmt.Sprintf("%.0f× @64B", small), fmt.Sprintf("%.1f× @64MiB", large), "", "")
	return &Artifact{
		ID:    "table1-sweep",
		Title: "Table 1 (sweep): effective access time vs size — latency-bound to bandwidth-bound",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}
