package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
)

// TestSmoke runs every workload end to end at one fiftieth of its length:
// untraced run, reference verification, traced run, replays and budget.
func TestSmoke(t *testing.T) {
	o := options{seed: 42, smoke: true, out: t.TempDir()}
	var out bytes.Buffer
	for _, s := range specs {
		res, err := runWorkload(s, o, true, true, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s.name, err, out.String())
		}
		if res.Failed != 0 || res.Completed == 0 {
			t.Errorf("%s: completed %d, failed %d", s.name, res.Completed, res.Failed)
		}
		for _, set := range []struct {
			defs []metricDef
			vals map[string]float64
		}{{endToEndDefs, res.EndToEnd}, {perLayerDefs, res.PerLayer}} {
			if len(set.vals) != len(set.defs) {
				t.Errorf("%s: %d metrics reported, %d declared", s.name, len(set.vals), len(set.defs))
			}
			for _, d := range set.defs {
				if _, ok := set.vals[d.name]; !ok {
					t.Errorf("%s: %s is declared but not reported", s.name, d.name)
				}
			}
		}
		for _, d := range endToEndDefs {
			if res.EndToEnd[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.name, res.EndToEnd[d.name])
			}
		}
		for _, f := range []string{"result_", "trace_"} {
			if _, err := os.Stat(o.out + "/" + f + s.name + ".json"); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the names the binary emits the
// same set, spelled the way the contract allows.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q: name or unit outside the contract, or used twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s %q: bound %v, the binary has %v", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndDefs, true)
	check("per_layer", file.PerLayer, perLayerDefs, false)
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 99, ok: false},
		{n: 100, p: 0.9, beyond: 10, ok: true},
		{n: 999, p: 0.95, beyond: 49, ok: true},
		{n: 1000, p: 0.99, beyond: 10, ok: true},
		{n: 30000, p: 0.999, beyond: 30, ok: true},
		{n: 100000, p: 0.9999, beyond: 10, ok: true},
	} {
		p, beyond, ok := supportedTail(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %d, %v; want %v, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got, want := spread(s[:10]), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}

// TestOpenLoopChargesStallsToLaterJobs pins the due-time accounting: when
// the submitter is stalled inside one call, the jobs that fell due
// meanwhile are timed from when they were due, not from when they were
// finally sent.
func TestOpenLoopChargesStallsToLaterJobs(t *testing.T) {
	const stall = 40 * time.Millisecond
	in := &input{jobs: []*dataflow.Job{dataflow.NewJob("j")}, gaps: []float64{1}, virtualRate: 1}
	calls := 0
	st := &stack{submit: func(context.Context, *dataflow.Job, ...core.SubmitOptions) (*core.Ticket, error) {
		if calls++; calls == 1 {
			time.Sleep(stall)
		}
		tk := core.NewRoutedTicket(uint64(calls), false)
		tk.Deliver(&core.Report{}, nil)
		return tk, nil
	}}
	se := &session{s: spec{kind: openLoop}, st: st, in: in}
	p, err := se.phase(20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gap := time.Second / pacedRate
	for i := 1; i < 20; i++ {
		r := p.rec(i)
		if want := int64(time.Duration(i+1) * gap); r.due != want {
			t.Fatalf("job %d due at %d, want %d: the schedule must not slip with the submitter", i, r.due, want)
		}
	}
	second := p.rec(1)
	if late := time.Duration(second.sent - second.due); late < stall-2*gap {
		t.Errorf("job 1 was sent %v late, want about %v", late, stall)
	}
	if lat := time.Duration(second.done - second.due); lat < stall-2*gap {
		t.Errorf("job 1 latency %v does not include the stall of %v it waited behind", lat, stall)
	}
}

func TestSeedDecidesTheJobStream(t *testing.T) {
	for _, s := range specs {
		a, b, c := buildInput(s, 7), buildInput(s, 7), buildInput(s, 8)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 7 gave two different job streams", s.name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 gave the same job stream", s.name)
		}
	}
}

// TestTracedJobKeepsEdgeOrder checks that wrapping bodies rebuilds a graph
// whose predecessor and successor orders are the original's, whatever order
// the edges were declared in.
func TestTracedJobKeepsEdgeOrder(t *testing.T) {
	body := func(dataflow.Ctx) error { return nil }
	j := dataflow.NewJob("j")
	a, b, c, d := j.Task("a", dataflow.Props{}, body), j.Task("b", dataflow.Props{}, body), j.Task("c", dataflow.Props{}, nil), j.Task("d", dataflow.Props{}, body)
	b.Then(d) // d's predecessors are declared b, a, c: not in task order
	a.Then(d)
	a.Then(c)
	c.Then(d)
	a.Then(b)
	w := newTracer([]*dataflow.Job{j}).jobs[0]
	if w == j {
		t.Fatal("job with bodies was not wrapped")
	}
	ids := func(ts []*dataflow.Task) (out []string) {
		for _, t := range ts {
			out = append(out, t.ID())
		}
		return out
	}
	for _, orig := range j.Tasks() {
		got, _ := w.Get(orig.ID())
		if !reflect.DeepEqual(ids(got.Preds()), ids(orig.Preds())) || !reflect.DeepEqual(ids(got.Succs()), ids(orig.Succs())) {
			t.Errorf("task %s: preds %v succs %v, want %v %v", orig.ID(), ids(got.Preds()), ids(got.Succs()), ids(orig.Preds()), ids(orig.Succs()))
		}
		if (got.Fn() == nil) != (orig.Fn() == nil) {
			t.Errorf("task %s: a nil body must stay nil", orig.ID())
		}
	}
}
