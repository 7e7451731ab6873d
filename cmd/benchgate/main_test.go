package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture writes benchmark result lines as the test2json stream `go test
// -json` produces, splitting each line across two Output events the way
// test2json does for long ones.
func capture(t *testing.T, lines ...string) string {
	t.Helper()
	var b strings.Builder
	emit := func(out string) {
		ev, err := json.Marshal(map[string]string{"Action": "output", "Output": out})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(ev)
		b.WriteByte('\n')
	}
	emit("goos: linux\n")
	for _, l := range lines {
		emit(l[:len(l)/2])
		emit(l[len(l)/2:] + "\n")
	}
	emit("PASS\n")
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustParse(t *testing.T, path string, units map[string]float64) metrics {
	t.Helper()
	m, err := parse(path, units)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseUnits(t *testing.T) {
	units, err := parseUnits("jobs/s, ns/op:2,allocs/op:0", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 || units["jobs/s"] != 0.1 || units["ns/op"] != 2 || units["allocs/op"] != 0 {
		t.Errorf("units = %v", units)
	}
	for _, bad := range []string{"ns/op:fast", "ns/op:-1"} {
		if _, err := parseUnits(bad, 0.1); err == nil {
			t.Errorf("parseUnits(%q) must fail", bad)
		}
	}
}

func TestParseReassemblesLinesAndStripsProcs(t *testing.T) {
	units := map[string]float64{"jobs/s": 0, "allocs/op": 0}
	got := mustParse(t, capture(t,
		"BenchmarkServeOverlap/overlap-8 \t 2\t 7065123 ns/op\t 141.5 jobs/s\t 1320000 B/op\t 4728 allocs/op",
		"BenchmarkServeSharded/shards=4 \t 2\t 99 ns/op\t 12.5 jobs/s",
		"BenchmarkOdd/size-4k-16 \t 1\t 5 ns/op\t 3 allocs/op",
	), units)
	want := metrics{
		"BenchmarkServeOverlap/overlap":  {"jobs/s": 141.5, "allocs/op": 4728},
		"BenchmarkServeSharded/shards=4": {"jobs/s": 12.5},
		"BenchmarkOdd/size-4k":           {"allocs/op": 3},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, wm := range want {
		for unit, v := range wm {
			if got[name][unit] != v {
				t.Errorf("%s %s = %v, want %v", name, unit, got[name][unit], v)
			}
		}
		if _, leaked := got[name]["ns/op"]; leaked {
			t.Errorf("%s: ungated unit parsed", name)
		}
	}
}

// TestGateBothDirections: a higher-is-better unit fails below its floor, a
// lower-is-better one above its ceiling, each against its own tolerance —
// and an improvement in either direction never fails.
func TestGateBothDirections(t *testing.T) {
	units := map[string]float64{"jobs/s": 0.10, "ns/op": 1.0, "allocs/op": 0}
	base := mustParse(t, capture(t,
		"BenchmarkServe \t 2\t 1000 ns/op\t 100 jobs/s\t 40 allocs/op",
		"BenchmarkAccess/read \t 2\t 250 ns/op\t 0 B/op\t 0 allocs/op",
	), units)
	cases := []struct {
		name       string
		serve      string
		access     string
		compared   int
		failed     bool
		regressing string // substring of the one line expected to say REGRESSED
	}{
		{"unchanged", "1000 ns/op\t 100 jobs/s\t 40 allocs/op", "250 ns/op\t 0 allocs/op", 5, false, ""},
		{"both better", "400 ns/op\t 250 jobs/s\t 12 allocs/op", "90 ns/op\t 0 allocs/op", 5, false, ""},
		{"within tolerance", "1900 ns/op\t 91 jobs/s\t 40 allocs/op", "500 ns/op\t 0 allocs/op", 5, false, ""},
		{"throughput fell", "1000 ns/op\t 89 jobs/s\t 40 allocs/op", "250 ns/op\t 0 allocs/op", 5, true, "89 jobs/s"},
		{"time rose", "2100 ns/op\t 100 jobs/s\t 40 allocs/op", "250 ns/op\t 0 allocs/op", 5, true, "2100 ns/op"},
		{"one alloc over a zero budget", "1000 ns/op\t 100 jobs/s\t 40 allocs/op", "250 ns/op\t 1 allocs/op", 5, true, "BenchmarkAccess/read: 1 allocs/op"},
		{"one alloc over a nonzero budget", "1000 ns/op\t 100 jobs/s\t 41 allocs/op", "250 ns/op\t 0 allocs/op", 5, true, "41 allocs/op"},
		{"metric lost", "1000 ns/op\t 40 allocs/op", "250 ns/op\t 0 allocs/op", 4, false, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := mustParse(t, capture(t,
				"BenchmarkServe-2 \t 2\t "+c.serve,
				"BenchmarkAccess/read-2 \t 2\t "+c.access,
				"BenchmarkNew-2 \t 2\t 1 ns/op",
			), units)
			var log strings.Builder
			compared, failed := gate(&log, base, cur, units)
			if compared != c.compared || failed != c.failed {
				t.Errorf("gate = (%d compared, failed %v), want (%d, %v)\n%s", compared, failed, c.compared, c.failed, log.String())
			}
			for _, line := range strings.Split(log.String(), "\n") {
				if strings.Contains(line, "REGRESSED") != (c.regressing != "" && strings.Contains(line, c.regressing)) {
					t.Errorf("unexpected verdict line: %s", line)
				}
			}
			if !strings.Contains(log.String(), "BenchmarkNew: new benchmark") {
				t.Errorf("a benchmark without a baseline must be reported:\n%s", log.String())
			}
			if c.name == "metric lost" && !strings.Contains(log.String(), "jobs/s missing from current capture") {
				t.Errorf("a lost metric must be reported:\n%s", log.String())
			}
		})
	}
}

// TestByteUnitsAreCosts: a benchmark's own bytes-per-operation metric gates
// like B/op — growing fails, shrinking does not.
func TestByteUnitsAreCosts(t *testing.T) {
	units := map[string]float64{"restored-B/op": 0}
	base := mustParse(t, capture(t, "BenchmarkRecover/partial \t 2\t 10 ns/op\t 196608 restored-B/op"), units)
	for restored, wantFail := range map[string]bool{"196608": false, "65536": false, "196609": true} {
		cur := mustParse(t, capture(t, "BenchmarkRecover/partial-2 \t 2\t 10 ns/op\t "+restored+" restored-B/op"), units)
		var log strings.Builder
		if compared, failed := gate(&log, base, cur, units); compared != 1 || failed != wantFail {
			t.Errorf("%s restored-B/op: gate = (%d compared, failed %v), want (1, %v)\n%s", restored, compared, failed, wantFail, log.String())
		}
	}
}

// TestGateVacuousAndSkipped: nothing in common compares nothing (main turns
// that into a failure), and a non-positive baseline of a higher-is-better
// unit is skipped rather than divided by.
func TestGateVacuousAndSkipped(t *testing.T) {
	units := map[string]float64{"jobs/s": 0.1}
	base := mustParse(t, capture(t, "BenchmarkA \t 1\t 0 jobs/s", "BenchmarkGone \t 1\t 5 jobs/s"), units)
	cur := mustParse(t, capture(t, "BenchmarkA \t 1\t 7 jobs/s"), units)
	var log strings.Builder
	compared, failed := gate(&log, base, cur, units)
	if compared != 0 || failed {
		t.Errorf("gate = (%d, %v), want nothing compared and no failure", compared, failed)
	}
	for _, want := range []string{"non-positive baseline", "BenchmarkGone: in baseline only"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, log.String())
		}
	}
}
