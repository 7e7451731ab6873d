package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
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

// TestServerCountersListedOnlyWhenAddedTo: the server's per-job counters are
// resolved when it is built, like the region manager's above, and that must
// not show either — a server nobody submitted to lists none of them, and one
// job lists exactly the three it adds to. (The region lifecycle counters a
// run never touches — transfers_migrated, migrations, bytes_migrated — are
// absent from the golden file for the same reason.)
func TestServerCountersListedOnlyWhenAddedTo(t *testing.T) {
	tel := telemetry.NewRegistry()
	s := newTestServer(t, ServerConfig{ExecConfig: ExecConfig{Telemetry: tel}})
	if got := tel.Counters(); len(got) != 0 {
		t.Errorf("Counters() of a server nobody submitted to = %v, want empty", got)
	}
	if _, err := s.Submit(context.Background(), pipelineJob("p")); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k, v := range tel.Counters() {
		if strings.HasPrefix(k, "runtime/server_") {
			got = append(got, fmt.Sprintf("%s %d", k, v))
		}
	}
	sort.Strings(got)
	want := []string{"runtime/server_admitted 1", "runtime/server_completed 1", "runtime/server_epochs 1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("server counters after one job = %v, want %v", got, want)
	}
}
