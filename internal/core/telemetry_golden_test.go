package core

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's output")

// TestTelemetrySurfaceGolden pins what the registry prints for a fixed pair
// of jobs — the hospital job (shared regions: every coherence counter moves)
// then the DBMS job (thousands of exclusive region accesses) on one runtime
// — byte for byte: Report(), then Counters() as sorted "key value" lines.
// The golden file was captured before the access path's counters became
// pre-resolved atomics; how a counter is stored must never show here.
func TestTelemetrySurfaceGolden(t *testing.T) {
	tel := telemetry.NewRegistry()
	rt, err := New(ExecConfig{Telemetry: tel, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counters(); len(got) != 0 {
		t.Errorf("Counters() of a runtime that ran nothing = %v, want empty", got)
	}
	if _, err := rt.Run(workload.Hospital(workload.DefaultHospital())); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(workload.DBMS(workload.DefaultDBMS())); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(tel.Report())
	b.WriteString("--- Counters()\n")
	counters := tel.Counters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, counters[k])
	}
	const golden = "testdata/telemetry_surface.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("telemetry surface changed:\n--- got\n%s--- want\n%s", b.String(), want)
	}
}
