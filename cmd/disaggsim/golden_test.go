package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cli.golden from this tree's output")

// goldenRuns are the invocations TestCLIGolden pins: every mode whose output
// is a function of the flags alone. Serve and stream runs are left out: their
// queue-wait lines measure wall-clock time.
var goldenRuns = []string{
	"-job hospital -profile",
	"-jobs hospital,dbms,streaming -profile",
	"-job hospital -recover -faultrate 0.4",
	"-job dbms -placer worst",
	"-job dbms -placer random",
	"-job ml -placer first",
	"-jobs hospital,dbms -placer worst",
}

// TestCLIGolden pins what disaggsim prints for each of goldenRuns, byte for
// byte: schedules, placements, makespans, stretch, recovery counters and the
// telemetry profile. -update rewrites testdata/cli.golden, for a change that
// is meant to move an output.
func TestCLIGolden(t *testing.T) {
	var b strings.Builder
	for _, args := range goldenRuns {
		fmt.Fprintf(&b, "=== disaggsim %s ===\n", args)
		if err := run(strings.Fields(args), &b); err != nil {
			t.Fatalf("disaggsim %s: %v", args, err)
		}
	}
	const golden = "testdata/cli.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("disaggsim output changed at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("disaggsim output changed: %d lines, want %d", len(gl), len(wl))
	}
}
