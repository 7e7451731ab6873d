package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Add(LayerRegion, "allocs", 3)
	r.Add(LayerRegion, "allocs", 2)
	r.Add(LayerFault, "recoveries", 1)
	if got := r.Counter(LayerRegion, "allocs"); got != 5 {
		t.Errorf("allocs = %d, want 5", got)
	}
	if got := r.Counter(LayerFault, "recoveries"); got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
	if got := r.Counter(LayerApp, "missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Add(LayerApp, "x", 1) // must not panic
	r.Record(Span{})
	if r.Counter(LayerApp, "x") != 0 || r.Spans() != nil || r.Counters() != nil {
		t.Error("nil registry must behave as empty")
	}
	if r.Report() != "" {
		t.Error("nil registry report must be empty")
	}
}

func TestSpansAndAggregation(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "t1", Start: 0, End: 100})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "t2", Start: 50, End: 150})
	r.Record(Span{Layer: LayerScheduler, Job: "j", Task: "t1", Start: 0, End: 10})
	byLayer := r.ByLayer()
	if byLayer[LayerDevice] != 200 || byLayer[LayerScheduler] != 10 {
		t.Errorf("by layer = %v, want device 200, scheduler 10", byLayer)
	}
}

func TestSpanClampsNegative(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerApp, Start: 100, End: 50})
	if d := r.Spans()[0].Duration(); d != 0 {
		t.Errorf("inverted span duration = %v, want clamped 0", d)
	}
}

func TestReportDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Add(LayerRegion, "b", 1)
	r.Add(LayerApp, "a", 2)
	r.Record(Span{Layer: LayerDevice, Start: 0, End: time.Microsecond})
	rep := r.Report()
	if !strings.Contains(rep, "device") || !strings.Contains(rep, "region/b") {
		t.Errorf("report missing entries:\n%s", rep)
	}
	if rep != r.Report() {
		t.Error("report must be deterministic")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add(LayerDevice, "ops", 1)
				r.Record(Span{Layer: LayerDevice, Start: 0, End: 1})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(LayerDevice, "ops"); got != 8000 {
		t.Errorf("ops = %d, want 8000", got)
	}
	if got := len(r.Spans()); got != spanCap {
		t.Errorf("retained spans = %d, want the ring's %d", got, spanCap)
	}
	if got := r.SpansRecorded(); got != 8000 {
		t.Errorf("recorded spans = %d, want 8000", got)
	}
	if got := r.ByLayer()[LayerDevice]; got != 8000 {
		t.Errorf("device time = %v, want 8000", got)
	}
}

// TestSpanRingWraps records three laps of the ring with known durations: the
// ring keeps the last spanCap in order, and per-layer time counts every span
// (an inverted one as 0).
func TestSpanRingWraps(t *testing.T) {
	r := NewRegistry()
	layers := []Layer{LayerRuntime, LayerDevice, LayerFault}
	want := map[Layer]time.Duration{}
	const n = 3 * spanCap
	for i := 0; i < n; i++ {
		s := Span{Layer: layers[i%len(layers)], Start: time.Duration(i), End: time.Duration(i + i%7)}
		if i%5 == 0 {
			s.End = s.Start - 1 // clamped: counts 0
		}
		r.Record(s)
		want[s.Layer] += max(s.End-s.Start, 0)
	}
	spans := r.Spans()
	if len(spans) != spanCap {
		t.Fatalf("retained %d spans, want %d", len(spans), spanCap)
	}
	for k, s := range spans {
		if want := time.Duration(n - spanCap + k); s.Start != want {
			t.Fatalf("span %d starts at %v, want %v (oldest first)", k, s.Start, want)
		}
	}
	if got := r.ByLayer(); !reflect.DeepEqual(got, want) {
		t.Errorf("by layer = %v, want %v", got, want)
	}
	if got := r.SpansRecorded(); got != n {
		t.Errorf("recorded = %d, want %d", got, n)
	}
}

// TestRecordAllocatesNothingOnAFullRing: once the ring holds spanCap spans, a
// span overwrites the oldest in place. AllocsPerRun's warm-up run fills the
// ring; the one measured run is eight laps, because AllocsPerRun rounds down
// per run and a slice that still grows by a quarter at a time does so more
// than once in eight laps.
func TestRecordAllocatesNothingOnAFullRing(t *testing.T) {
	r := NewRegistry()
	s := Span{Layer: LayerRuntime, Job: "j", Task: "t", Name: "exec", End: time.Microsecond}
	laps := func() {
		for i := 0; i < 8*spanCap; i++ {
			r.Record(s)
		}
	}
	if got := testing.AllocsPerRun(1, laps); got != 0 {
		t.Errorf("eight laps of Record on a full ring allocate %.0f times, want 0", got)
	}
}

// BenchmarkRecord is one span recorded on a full ring: the cost every served
// task and job pays. It must not allocate.
func BenchmarkRecord(b *testing.B) {
	r := NewRegistry()
	s := Span{Layer: LayerRuntime, Job: "j", Task: "t", Name: "exec", End: time.Microsecond}
	for i := 0; i < spanCap; i++ {
		r.Record(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(s)
	}
}

// latencyBounds spans Table 1's latency range: 100ns … 10ms.
var latencyBounds = []time.Duration{
	100 * time.Nanosecond, time.Microsecond, 10 * time.Microsecond,
	100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{bounds: latencyBounds}
	samples := []time.Duration{
		50 * time.Nanosecond, 90 * time.Nanosecond, // ≤100ns
		500 * time.Nanosecond,  // ≤1µs
		50 * time.Microsecond,  // ≤100µs
		100 * time.Millisecond, // tail
	}
	for _, s := range samples {
		h.Observe(s)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	mean := h.Snapshot().Mean
	if mean < 20*time.Millisecond || mean > 21*time.Millisecond {
		t.Errorf("mean = %v, want ≈100.05ms/5", mean)
	}
	// Median falls in the (100ns, 1µs] bucket; the target rank (2.5 of 5)
	// sits halfway through its single sample, so the estimate interpolates
	// to the bucket midpoint: 100ns + 0.5·900ns.
	if q := h.Quantile(0.5); q != 550*time.Nanosecond {
		t.Errorf("p50 = %v, want 550ns interpolated", q)
	}
	if q := h.Quantile(1); q != 100*time.Millisecond {
		t.Errorf("p100 = %v, want max", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{bounds: []time.Duration{time.Microsecond}}
	if h.Snapshot().Mean != 0 || h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Error("empty histogram must return zeros")
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	h := &Histogram{bounds: []time.Duration{time.Microsecond}}
	h.Observe(time.Nanosecond)
	if h.Quantile(-1) != h.Quantile(0) {
		t.Error("q<0 must clamp to 0")
	}
	if h.Quantile(2) != h.Quantile(1) {
		t.Error("q>1 must clamp to 1")
	}
}

func TestExportChromeTrace(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerRuntime, Job: "j", Task: "t1", Name: "exec", Start: 1000, End: 5000})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "t1", Name: "read", Start: 2000, End: 3000})
	var buf bytes.Buffer
	if err := r.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["dur"].(float64) <= 0 {
				t.Error("complete events must have positive duration")
			}
		case "M":
			meta++
			if e["name"] == "dropped_spans" {
				t.Error("a trace that dropped nothing must not carry dropped_spans")
			}
		}
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if meta < 3 { // 2 process names + ≥1 thread name
		t.Errorf("metadata events = %d, want ≥3", meta)
	}
	// Nil registry writes an empty array.
	var r2 *Registry
	buf.Reset()
	if err := r2.ExportChromeTrace(&buf); err != nil || buf.String() != "[]" {
		t.Errorf("nil registry trace = %q, %v", buf.String(), err)
	}
}

// TestExportChromeTraceGolden pins the exact trace bytes for a task whose
// spans cross two layers: each layer (pid) must carry its own thread_name
// meta event for the task, with tids numbered per pid. Before thread names
// were keyed per (layer, task), the second layer's track rendered unnamed.
func TestExportChromeTraceGolden(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerRuntime, Job: "j", Task: "a", Name: "exec", Start: 1000, End: 4000})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "a", Name: "read", Start: 1500, End: 2500})
	r.Record(Span{Layer: LayerRuntime, Job: "j", Task: "b", Name: "exec", Start: 4000, End: 6000})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "b", Name: "write", Start: 4500, End: 5000})
	var buf bytes.Buffer
	if err := r.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `[` +
		`{"name":"process_name","ph":"M","pid":1,"args":{"name":"layer: runtime"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"j/a"}},` +
		`{"name":"exec","cat":"runtime","ph":"X","ts":1,"dur":3,"pid":1,"tid":1,"args":{"job":"j","task":"a"}},` +
		`{"name":"process_name","ph":"M","pid":2,"args":{"name":"layer: device"}},` +
		`{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"j/a"}},` +
		`{"name":"read","cat":"device","ph":"X","ts":1.5,"dur":1,"pid":2,"tid":1,"args":{"job":"j","task":"a"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"j/b"}},` +
		`{"name":"exec","cat":"runtime","ph":"X","ts":4,"dur":2,"pid":1,"tid":2,"args":{"job":"j","task":"b"}},` +
		`{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"j/b"}},` +
		`{"name":"write","cat":"device","ph":"X","ts":4.5,"dur":0.5,"pid":2,"tid":2,"args":{"job":"j","task":"b"}}` +
		"]\n"
	if got := buf.String(); got != golden {
		t.Errorf("trace mismatch:\ngot:  %s\nwant: %s", got, golden)
	}
}

// TestExportChromeTraceCountsDroppedSpans: a trace of a wrapped ring holds
// the ring's spans and opens with a dropped_spans event that counts the rest.
func TestExportChromeTraceCountsDroppedSpans(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < spanCap+3; i++ {
		r.Record(Span{Layer: LayerRuntime, Job: "j", Task: "t", Name: "exec", Start: time.Duration(i) * time.Microsecond, End: time.Duration(i+1) * time.Microsecond})
	}
	var buf bytes.Buffer
	if err := r.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name, Ph string
		Args     map[string]string
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	first := events[0]
	if recorded := strconv.Itoa(spanCap + 3); first.Name != "dropped_spans" || first.Ph != "M" ||
		first.Args["dropped"] != "3" || first.Args["recorded"] != recorded {
		t.Errorf("first event = %+v, want dropped_spans with dropped 3 of %s", first, recorded)
	}
	complete := 0
	for _, e := range events {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete != spanCap {
		t.Errorf("complete events = %d, want the ring's %d", complete, spanCap)
	}
}

func TestRegistryObserveAndHist(t *testing.T) {
	r := NewRegistry()
	if r.Hist(LayerRuntime, "queue_wait") != nil {
		t.Error("Hist must be nil before any Observe")
	}
	r.Observe(LayerRuntime, "queue_wait", 5*time.Microsecond)
	r.Observe(LayerRuntime, "queue_wait", 2*time.Millisecond)
	r.Observe(LayerRuntime, "queue_wait", 80*time.Millisecond)
	h := r.Hist(LayerRuntime, "queue_wait")
	if h == nil {
		t.Fatal("Hist must return the implicitly created histogram")
	}
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if h.Max() != 80*time.Millisecond {
		t.Errorf("max = %v, want 80ms", h.Max())
	}
	// Rank 1.5 of 3 lands halfway through the (1ms, 10ms] bucket's single
	// sample: 1ms + 0.5·9ms.
	if p50 := h.Quantile(0.50); p50 != 5500*time.Microsecond {
		t.Errorf("p50 = %v, want 5.5ms interpolated", p50)
	}
	// Same (layer, name) accumulates into one histogram; a different layer
	// gets its own.
	r.Observe(LayerFault, "queue_wait", time.Second)
	if h.Count() != 3 {
		t.Error("different layer leaked into existing histogram")
	}
	if fh := r.Hist(LayerFault, "queue_wait"); fh == nil || fh.Count() != 1 {
		t.Error("per-layer histogram missing")
	}
}

func TestRegistryHistNilSafe(t *testing.T) {
	var r *Registry
	r.Observe(LayerRuntime, "x", time.Second) // must not panic
	if r.Hist(LayerRuntime, "x") != nil {
		t.Error("nil registry must report no histograms")
	}
}

func TestReportIncludesHistograms(t *testing.T) {
	r := NewRegistry()
	if strings.Contains(r.Report(), "histograms:") {
		t.Error("empty registry must omit the histograms section")
	}
	r.Observe(LayerRuntime, "queue_wait", 3*time.Millisecond)
	rep := r.Report()
	if !strings.Contains(rep, "histograms:") || !strings.Contains(rep, "runtime/queue_wait") {
		t.Errorf("report missing histogram section:\n%s", rep)
	}
	for _, field := range []string{"n=1", "p50=", "p99=", "max="} {
		if !strings.Contains(rep, field) {
			t.Errorf("report missing %q:\n%s", field, rep)
		}
	}
}
