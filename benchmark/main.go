// Command benchmark is the repository's benchmark: five serving workloads
// driven through the public serving surface (core.NewServer, SubmitAsync,
// SubmitStream, shard.NewCluster), end-to-end metrics from an untraced run,
// per-layer metrics and a budget from a traced run plus isolated replays of
// each layer's public functions, and a verification of the outputs against
// a single-worker reference pass. See README.md beside this file.
//
//	go run ./benchmark                       every workload, fixed job counts
//	go run ./benchmark -workload serve_real  one workload; last line is JSON
//	go run ./benchmark -repeat 5             A/A: spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only and print one JSON result as the last line (default: all five)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the job stream, the arrivals and the fault sites")
	flag.Float64Var(&o.seconds, "seconds", 0, "bound the run phase by time instead of by the workload's fixed job count")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced one")
	flag.BoolVar(&o.smoke, "smoke", false, "run lengths divided by 50: a functional check, not a measurement")
	flag.IntVar(&o.repeat, "repeat", 0, "A/A mode: run every workload this many times in fresh processes and check the spreads against the bounds")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result_<workload>.json and trace_<workload>.json")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	}
	if o.repeat == 1 {
		return fmt.Errorf("-repeat needs at least 2 runs to have a spread")
	}
	if o.repeat > 0 {
		return repeat(o, w)
	}
	if o.workload != "" {
		s, ok := specByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runWorkload(s, o, o.trace == 0, o.trace == 1, w)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res.line(o.trace == 1))
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", line)
		return err
	}
	for _, s := range specs {
		if _, err := runWorkload(s, o, true, true, w); err != nil {
			return err
		}
	}
	return nil
}

// result is one workload's outcome, written whole to result_<workload>.json.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Smoke     bool               `json:"smoke"`
	JobStream string             `json:"job_stream_fingerprint"`
	Ramp      int                `json:"ramp_jobs"`
	Attempted int                `json:"attempted"`
	Completed int                `json:"completed"`
	Failed    int                `json:"failed"`
	Refused   int                `json:"refused"`
	Verified  int                `json:"verified_jobs"`
	Resubs    int                `json:"verified_resubmissions"`
	NProc     int                `json:"nproc"`
	GoVersion string             `json:"go_version"`
	Commit    string             `json:"commit"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func (r *result) counts(p *phaseData) {
	r.Attempted, r.Completed = p.n, p.count(completed)
	r.Failed, r.Refused = p.count(failed), p.count(refused)
}

// harnessLine is the one-line JSON the harness reads.
type harnessLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line(traced bool) harnessLine {
	defs, vals := endToEndDefs, r.EndToEnd
	if traced {
		defs, vals = perLayerDefs, r.PerLayer
	}
	// Failed counts admitted jobs that delivered an error. An SLO refusal is
	// the admission policy's designed answer, not a failed operation; it is
	// reported as core.slo_refused_share and counts as an SLO miss.
	l := harnessLine{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return l
}

// runWorkload measures one workload. The untraced run yields the end-to-end
// metrics; the traced run and the replays yield the per-layer ones. With
// both, run lengths follow the fixed counts (traced: one tenth); with one,
// -seconds is split so that the whole invocation measures for that long.
// Whatever ran is verified against the reference pass before anything is
// reported.
func runWorkload(s spec, o options, wantEndToEnd, wantPerLayer bool, w io.Writer) (*result, error) {
	if o.smoke {
		s = s.smoke()
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	res := &result{
		Workload: s.name, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Ramp: s.ramp,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit(),
	}
	// The traced run follows the same ramp-up, so its run phase offers the
	// same submissions and must reproduce the untraced reports bit for bit.
	untracedSec, tracedSec, tracedSpec := o.seconds, o.seconds/10, s
	tracedSpec.run = max(s.run/10, s.verify)
	if !wantEndToEnd {
		// -workload with -trace 1: the untraced half is only the baseline
		// of the tracing overhead.
		untracedSec, tracedSec, tracedSpec = o.seconds/2, o.seconds/2, s
	}

	m, err := measure(s, o.seed, untracedSec, false)
	if err != nil {
		return nil, err
	}
	ref, err := reference(s, o.seed, m.in)
	if err != nil {
		return nil, fmt.Errorf("%s: reference pass: %w", s.name, err)
	}
	if err := m.check(ref); err != nil {
		return nil, err
	}
	if err := m.close(); err != nil {
		return nil, err
	}
	res.counts(m.run)
	res.JobStream = fmt.Sprintf("%016x", m.in.fingerprint())
	res.Verified, res.Resubs = min(s.verify, m.run.n), m.resubs
	res.EndToEnd = m.endToEnd()
	fmt.Fprintf(w, "== %s (seed %d): %s\n", s.name, o.seed, s.why)
	fmt.Fprintf(w, "attempted %d  completed %d  failed %d  refused %d  verified %d reports + %d resubmissions against the single-worker reference\n",
		res.Attempted, res.Completed, res.Failed, res.Refused, res.Verified, res.Resubs)
	if m.run.firstFn != "" {
		fmt.Fprintf(w, "first failure: %s\n", m.run.firstFn)
	}
	printMetrics(w, endToEndDefs, res.EndToEnd)
	lat := m.run.latencies()
	if p, beyond, ok := supportedTail(len(lat)); ok {
		fmt.Fprintf(w, "latency tail (not gated): p%g = %.3f ms, %d samples, %d beyond it\n", 100*p, percentile(lat, p), len(lat), beyond)
	}

	if wantPerLayer {
		t, err := measure(tracedSpec, o.seed, tracedSec, true)
		if err != nil {
			return nil, err
		}
		if err := t.check(ref); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		if err := t.close(); err != nil {
			return nil, err
		}
		rows, err := res.perLayer(t, m.run.throughput())
		if err != nil {
			return nil, err
		}
		if !wantEndToEnd {
			res.counts(t.run)
			res.EndToEnd = nil
		}
		printMetrics(w, perLayerDefs, res.PerLayer)
		printBudget(w, s.name, rows, res.PerLayer["driver.cpu_us_per_job"]*1e3)
		if err := t.traceOut.write(filepath.Join(o.out, "trace_"+s.name+".json"), t.run); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(o.out, "result_"+s.name+".json"), append(data, '\n'), 0o644)
}

// perLayer fills in the per-layer metrics from the traced run t: counter
// deltas, replayed times, span times, and the budget's residual. untraced is
// the untraced run's jobs_per_s, the base of the tracing overhead.
func (r *result) perLayer(t *measured, untraced float64) ([]budgetRow, error) {
	r.PerLayer = t.counted()
	replayed, err := replay(t)
	if err != nil {
		return nil, err
	}
	for k, val := range replayed {
		r.PerLayer[k] = val
	}
	jobs := float64(t.run.count(completed))
	self, alloc := t.traceOut.bodyTime()
	r.PerLayer["driver.body_ns_per_job"] = float64(self) / jobs
	r.PerLayer["driver.ctx_alloc_ns_per_job"] = float64(alloc) / jobs
	r.PerLayer["driver.trace_overhead_share"] = 1 - t.run.throughput()/untraced
	rows := budget(t, r.PerLayer)
	r.PerLayer["driver.residual_share"] = residualShare(rows, r.PerLayer["driver.cpu_us_per_job"]*1e3)
	return rows, declared(perLayerDefs, r.PerLayer)
}

// declared makes vals hold exactly the metrics of defs: a metric that does
// not apply to the workload reads 0, and a value under a name that is not
// declared is a bug in the driver.
func declared(defs []metricDef, vals map[string]float64) error {
	names := map[string]bool{}
	for _, d := range defs {
		names[d.name] = true
		if _, ok := vals[d.name]; !ok {
			vals[d.name] = 0
		}
	}
	for k := range vals {
		if !names[k] {
			return fmt.Errorf("metric %q is reported but not declared", k)
		}
	}
	return nil
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", d.name, vals[d.name], d.unit)
	}
	tw.Flush()
}

// commit is the revision the binary was built from, when the build knew it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
