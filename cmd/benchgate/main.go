// Command benchgate compares a fresh `go test -json` benchmark capture
// against a committed baseline and fails (exit 1) when a gated metric got
// worse beyond its tolerance — the regression gate `make bench-smoke` runs
// in CI.
//
// Both files are test2json streams; benchmark results arrive as Output
// lines like
//
//	BenchmarkServedJob-8 ... 2510 ns/op ... 1442 B/op ... 14 allocs/op
//
// benchgate extracts, per benchmark name, every `<value> <unit>` metric
// pair whose unit is listed in -metrics. Every listed unit carries its own
// tolerance, as unit:tolerance — `-metrics ns/op:2,allocs/op:0` lets time
// triple before failing but not a single allocation appear — and a bare
// unit is a usage error: there is no default tolerance to fall back on.
// "Worse" has a direction per unit: the standard cost units of the testing
// package (ns/op, B/op, allocs/op) and every other bytes-per-operation unit
// (restored-B/op) are lower-is-better and require current ≤ (1 +
// tolerance) × baseline; every other unit (admitted, exported/op, ...) is
// higher-is-better and requires current ≥ (1 - tolerance) × baseline.
// Benchmarks present in only one file are reported but never fail the
// gate, so the baseline does not have to be regenerated when a benchmark is
// added. Every metric that is skipped (present in the baseline but missing
// from the current capture, or a non-positive baseline of a
// higher-is-better unit) is logged, and if the run ends with zero metrics
// actually compared the gate fails: a vacuous comparison must not read as
// a pass.
//
// Usage:
//
//	benchgate -baseline bench/BENCH_served_baseline.json -current BENCH_served.json -metrics ns/op:2,allocs/op:0
//
// A missing baseline file skips the gate with a notice (exit 0): fresh
// clones and baseline-regeneration commits must not fail CI.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type metrics map[string]map[string]float64 // bench name → unit → value

// lowerIsBetter reports the direction of a unit: the testing package's cost
// units, and any other count of bytes per operation (restored-B/op), shrink
// when things improve; everything else grows.
func lowerIsBetter(unit string) bool {
	return unit == "ns/op" || unit == "allocs/op" || strings.HasSuffix(unit, "B/op")
}

// parseUnits reads a -metrics list: comma-separated unit:tolerance pairs.
func parseUnits(list string) (map[string]float64, error) {
	units := make(map[string]float64)
	for _, u := range strings.Split(list, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		unit, t, ok := strings.Cut(u, ":")
		if !ok {
			return nil, fmt.Errorf("%q has no tolerance: write %s:<tolerance>", u, u)
		}
		tol, err := strconv.ParseFloat(t, 64)
		if err != nil || tol < 0 {
			return nil, fmt.Errorf("bad tolerance in %q", u)
		}
		units[unit] = tol
	}
	if len(units) == 0 {
		return nil, errors.New("no unit to gate on")
	}
	return units, nil
}

// stripProcs drops the -GOMAXPROCS suffix the testing package appends to
// benchmark names on multi-core hosts, so a baseline captured on one core
// count gates a run on another.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// parse extracts benchmark metrics from a test2json stream.
func parse(path string, units map[string]float64) (metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(metrics)
	// test2json splits long benchmark result lines across several Output
	// events, so reassemble the whole output stream first and split on real
	// newlines.
	var stream strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct{ Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		stream.WriteString(ev.Output)
	}
	for _, raw := range strings.Split(stream.String(), "\n") {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := stripProcs(fields[0])
		for i := 1; i+1 < len(fields); i++ {
			unit := fields[i+1]
			if _, gated := units[unit]; !gated {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if out[name] == nil {
				out[name] = make(map[string]float64)
			}
			out[name][unit] = v
		}
	}
	return out, sc.Err()
}

// gate compares cur against base for every gated unit, logs one line per
// decision to w, and returns how many metrics were compared and whether any
// got worse beyond its tolerance.
func gate(w io.Writer, base, cur metrics, units map[string]float64) (compared int, failed bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cm, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "benchgate: %s: in baseline only (ignored)\n", name)
			continue
		}
		bm := base[name]
		unitNames := make([]string, 0, len(bm))
		for unit := range bm {
			unitNames = append(unitNames, unit)
		}
		sort.Strings(unitNames)
		for _, unit := range unitNames {
			bv, tol := bm[unit], units[unit]
			cv, ok := cm[unit]
			if !ok {
				// A metric the baseline has but the current capture lost is
				// exactly how a broken benchmark slips past the gate —
				// always say so.
				fmt.Fprintf(w, "benchgate: %s: %s missing from current capture — skipped\n", name, unit)
				continue
			}
			// A zero baseline is a real budget for a cost — 0 allocs/op must
			// stay 0 at any tolerance — but no floor for a throughput.
			lower := lowerIsBetter(unit)
			if !lower && bv <= 0 {
				fmt.Fprintf(w, "benchgate: %s: non-positive baseline %.4g %s — skipped\n", name, bv, unit)
				continue
			}
			compared++
			bound, limit := "floor", bv*(1-tol)
			worse := cv < limit
			if lower {
				bound, limit = "ceiling", bv*(1+tol)
				worse = cv > limit
			}
			verdict := "ok"
			if worse {
				verdict, failed = "REGRESSED", true
			}
			fmt.Fprintf(w, "benchgate: %s: %.4g %s vs baseline %.4g (%s %.4g) — %s\n",
				name, cv, unit, bv, bound, limit, verdict)
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(w, "benchgate: %s: new benchmark, no baseline (ignored)\n", name)
		}
	}
	return compared, failed
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on args, writing its decisions to stdout and its
// complaints to stderr, and returns the exit status: 0 pass, 1 a regression
// or a vacuous comparison, 2 a usage or read error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "committed test2json baseline capture")
	current := fs.String("current", "", "fresh test2json capture to gate")
	unitList := fs.String("metrics", "", "comma-separated unit:tolerance pairs to gate on (0.10 = 10% worse allowed); ns/op, allocs/op and every B/op unit are lower-is-better, all others higher-is-better")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *baseline == "" || *current == "" {
		fmt.Fprintln(stderr, "benchgate: -baseline and -current are required")
		return 2
	}
	units, err := parseUnits(*unitList)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: -metrics: %v\n", err)
		return 2
	}

	base, err := parse(*baseline, units)
	if os.IsNotExist(err) {
		fmt.Fprintf(stdout, "benchgate: no baseline at %s — gate skipped\n", *baseline)
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: reading baseline: %v\n", err)
		return 2
	}
	cur, err := parse(*current, units)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: reading current: %v\n", err)
		return 2
	}

	compared, failed := gate(stdout, base, cur, units)
	if compared == 0 {
		// A gate that compared nothing passed nothing: renamed benchmarks,
		// a bad -metrics list, or an empty capture must fail loudly, not
		// report success.
		fmt.Fprintf(stderr, "benchgate: no metric compared between %s and %s — gate is vacuous\n",
			*baseline, *current)
		return 1
	}
	if failed {
		fmt.Fprintf(stderr, "benchgate: a gated metric got worse beyond its tolerance vs %s\n", *baseline)
		return 1
	}
	return 0
}
