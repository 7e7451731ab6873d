// Package telemetry provides the cross-layer observability the paper's
// challenge 8(1) calls for: when the runtime hides placement decisions,
// developers still need to debug and profile dataflows across abstraction
// layers. Every layer (region, placement, scheduler, coherence, fault
// tolerance) records into a shared Registry; spans attribute simulated time
// to (job, task, layer) so a report can slice by any of them.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layer tags which abstraction layer produced a metric or span.
type Layer string

const (
	LayerApp       Layer = "app"
	LayerRuntime   Layer = "runtime"
	LayerRegion    Layer = "region"
	LayerPlacement Layer = "placement"
	LayerScheduler Layer = "scheduler"
	LayerCoherence Layer = "coherence"
	LayerFault     Layer = "fault"
	LayerDevice    Layer = "device"
	LayerCluster   Layer = "cluster"
)

// Registry collects counters and spans. The zero value is unusable; use
// NewRegistry. A nil *Registry is a valid no-op sink, so hot paths can be
// instrumented unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[metricKey]*Counter
	spans    []Span
	hists    map[metricKey]*Histogram
}

// metricKey names a counter or histogram; it prints as "layer/name".
type metricKey struct {
	layer Layer
	name  string
}

func (k metricKey) String() string { return string(k.layer) + "/" + k.name }

// Counter is one registry counter, resolved once with Registry.Handle so
// that adding to it is a single atomic add: no key is built, no map probed
// and no lock taken. A nil *Counter is a valid no-op sink, which is what a
// nil registry hands out.
type Counter struct {
	n atomic.Int64
	// listed latches on the first Add: a resolved counter that was never
	// added to does not exist as far as Counters and Report are concerned.
	listed atomic.Bool
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
	if !c.listed.Load() {
		c.listed.Store(true)
	}
}

// Span is one attributed slice of simulated time.
type Span struct {
	Layer Layer
	Job   string
	Task  string
	Name  string
	Start time.Duration // virtual time
	End   time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[metricKey]*Counter), hists: make(map[metricKey]*Histogram)}
}

// Handle resolves a named counter, creating it unlisted on first use. The
// returned counter stays the same object for the registry's lifetime (Reset
// zeroes it in place), so a layer resolves its hot counters once and adds to
// them without touching the registry again. Nil-safe: a nil registry
// resolves to the nil counter.
func (r *Registry) Handle(layer Layer, name string) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{layer, name}
	r.mu.Lock()
	c, ok := r.counters[k]
	if !ok {
		c = new(Counter)
		r.counters[k] = c
	}
	r.mu.Unlock()
	return c
}

// Add increments a named counter: Handle(layer, name).Add(delta), for call
// sites too cold to keep the handle. Nil-safe.
func (r *Registry) Add(layer Layer, name string, delta int64) {
	r.Handle(layer, name).Add(delta)
}

// Counter reads a counter (0 if absent). Nil-safe.
func (r *Registry) Counter(layer Layer, name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[metricKey{layer, name}]; ok {
		return c.n.Load()
	}
	return 0
}

// HistHandle resolves the named histogram, creating it empty with
// DefaultWaitBounds on first use — the Handle of distribution metrics. The
// histogram stays the same object for the registry's lifetime. Nil-safe: a
// nil registry resolves to the nil histogram, whose Observe is a no-op.
func (r *Registry) HistHandle(layer Layer, name string) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey{layer, name}
	r.mu.Lock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{bounds: defaultWaitBounds}
		r.hists[k] = h
	}
	r.mu.Unlock()
	return h
}

// Observe records one sample into the named histogram —
// HistHandle(layer, name).Observe(d), for distribution metrics (queue waits,
// admission latency) where a sum counter would hide the tail. Nil-safe.
func (r *Registry) Observe(layer Layer, name string, d time.Duration) {
	r.HistHandle(layer, name).Observe(d)
}

// Hist returns the named histogram, or nil if nothing was observed under
// that name. Nil-safe.
func (r *Registry) Hist(layer Layer, name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.hists[metricKey{layer, name}]
	r.mu.Unlock()
	if h == nil || h.Count() == 0 {
		return nil
	}
	return h
}

// Record stores a completed span. Nil-safe.
func (r *Registry) Record(s Span) {
	if r == nil {
		return
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of all recorded spans. Nil-safe.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Counters returns a sorted copy of all counters. Nil-safe.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		if c.listed.Load() {
			out[k.String()] = c.n.Load()
		}
	}
	return out
}

// Reset clears all state. Counters and histograms are emptied in place, not
// dropped, so handles resolved before the reset keep feeding the registry
// after it. Nil-safe.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, c := range r.counters {
		c.listed.Store(false)
		c.n.Store(0)
	}
	r.spans = nil
	for _, h := range r.hists {
		h.reset()
	}
	r.mu.Unlock()
}

// ByLayer aggregates total span time per layer — the "which layer is my
// dataflow spending time in" profile.
func (r *Registry) ByLayer() map[Layer]time.Duration {
	out := make(map[Layer]time.Duration)
	for _, s := range r.Spans() {
		out[s.Layer] += s.Duration()
	}
	return out
}

// ByTask aggregates total span time per (job, task).
func (r *Registry) ByTask() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range r.Spans() {
		out[s.Job+"/"+s.Task] += s.Duration()
	}
	return out
}

// Report renders a deterministic multi-line profile, layers then counters.
func (r *Registry) Report() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	byLayer := r.ByLayer()
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, string(l))
	}
	sort.Strings(layers)
	b.WriteString("time by layer:\n")
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-12s %v\n", l, byLayer[Layer(l)])
	}
	counters := r.Counters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("counters:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-32s %d\n", k, counters[k])
	}
	r.mu.Lock()
	hists := make(map[string]HistSnapshot, len(r.hists))
	for k, h := range r.hists {
		if s := h.Snapshot(); s.Count > 0 {
			hists[k.String()] = s
		}
	}
	r.mu.Unlock()
	if len(hists) > 0 {
		hkeys := make([]string, 0, len(hists))
		for k := range hists {
			hkeys = append(hkeys, k)
		}
		sort.Strings(hkeys)
		b.WriteString("histograms:\n")
		for _, k := range hkeys {
			s := hists[k]
			fmt.Fprintf(&b, "  %-32s n=%d mean=%v p50=%v p99=%v p999=%v max=%v\n",
				k, s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
		}
	}
	return b.String()
}

// Histogram is a fixed-bucket latency histogram for access profiles. A nil
// *Histogram is a valid no-op sink for Observe.
type Histogram struct {
	mu      sync.Mutex
	bounds  []time.Duration // read-only; registry histograms share one slice
	buckets []int64         // len(bounds)+1, allocated by the first Observe
	count   int64
	sum     time.Duration
	max     time.Duration
}

// NewHistogram builds a histogram with the given ascending bucket bounds;
// an implicit +Inf bucket catches the tail.
func NewHistogram(bounds ...time.Duration) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be ascending")
		}
	}
	return &Histogram{bounds: bounds}
}

// DefaultLatencyBounds spans Table 1's latency range: 100ns … 10ms.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		100 * time.Nanosecond, time.Microsecond, 10 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	}
}

// defaultWaitBounds is the one bounds slice every registry histogram shares.
var defaultWaitBounds = DefaultWaitBounds()

// DefaultWaitBounds spans queueing/wall-clock waits: 1µs … 10s. Registry
// histograms (HistHandle, Observe) use these.
func DefaultWaitBounds() []time.Duration {
	return []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		time.Second, 10 * time.Second,
	}
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buckets == nil {
		h.buckets = make([]int64, len(h.bounds)+1)
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// reset empties the histogram in place.
func (h *Histogram) reset() {
	h.mu.Lock()
	clear(h.buckets)
	h.count, h.sum, h.max = 0, 0, 0
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average sample, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// HistSnapshot is a histogram's consistent summary at one instant — the
// latency figures a serving report quotes (count, mean, p50/p99/p999 tail,
// max). Taken atomically under the histogram's lock, so the quantiles are
// mutually consistent even while observations keep arriving.
type HistSnapshot struct {
	Count                     int64
	Mean, P50, P99, P999, Max time.Duration
}

// Snapshot summarizes the histogram. The p999 figure is what open-loop
// traffic runs gate on: with 100k+ submissions the 0.999 tail is resolved by
// real samples, not interpolation artifacts.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / time.Duration(h.count)
	}
	s.P50 = h.quantileLocked(0.50)
	s.P99 = h.quantileLocked(0.99)
	s.P999 = h.quantileLocked(0.999)
	return s
}

// Quantile estimates the q-quantile, q in [0,1], by locating the bucket
// holding the target rank and interpolating linearly inside it (the usual
// Prometheus-style estimator) instead of returning the raw bucket boundary.
// The tail bucket interpolates toward Max, and the estimate is clamped to
// Max so a sparsely filled bucket never reports a latency above any sample.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	target := int64(rank)
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum > target || (q == 1 && cum == h.count && c > 0) {
			var lower, upper time.Duration
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if i < len(h.bounds) {
				upper = h.bounds[i]
			} else {
				upper = h.max
			}
			frac := (rank - float64(cum-c)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			v := lower + time.Duration(frac*float64(upper-lower))
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
