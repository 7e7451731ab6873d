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

// layers lists the Layer constants in the order their span totals sit in a
// Registry's fixed array (layerSlot).
var layers = [...]Layer{
	LayerApp, LayerRuntime, LayerRegion, LayerPlacement, LayerScheduler,
	LayerCoherence, LayerFault, LayerDevice, LayerCluster,
}

// layerSlot returns l's place in layers, -1 for a layer outside them. A
// switch on a string compares, where a map would hash.
func layerSlot(l Layer) int {
	switch l {
	case LayerApp:
		return 0
	case LayerRuntime:
		return 1
	case LayerRegion:
		return 2
	case LayerPlacement:
		return 3
	case LayerScheduler:
		return 4
	case LayerCoherence:
		return 5
	case LayerFault:
		return 6
	case LayerDevice:
		return 7
	case LayerCluster:
		return 8
	}
	return -1
}

// spanCap bounds the span ring at 320 KiB, the bound placement keeps its
// decision log to: a registry behind a long-lived server records a few spans
// per job forever, so it keeps the most recent spanCap of them.
const spanCap = 4096

// Registry collects counters and spans. The zero value is unusable; use
// NewRegistry. A nil *Registry is a valid no-op sink, so hot paths can be
// instrumented unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[metricKey]*Counter
	// spans is a ring of the most recent spans: it grows to spanCap, after
	// which head is the oldest entry, the one the next Record overwrites.
	spans []Span
	head  int
	// recorded and the span totals cover every span, the ones the ring has
	// dropped included. A Layer constant's total sits in layerTime, by
	// layerSlot, with its bit in layerSeen set once a span of it, even an
	// empty one, was recorded; any other layer's sits in otherTime.
	recorded  int64
	layerTime [len(layers)]time.Duration
	layerSeen uint16
	otherTime map[Layer]time.Duration
	hists     map[metricKey]*Histogram
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
	return &Registry{
		counters: make(map[metricKey]*Counter),
		hists:    make(map[metricKey]*Histogram),
	}
}

// Handle resolves a named counter, creating it unlisted on first use. The
// returned counter stays the same object for the registry's lifetime, so a
// layer resolves its hot counters once and adds to them without touching the
// registry again. Nil-safe: a nil registry resolves to the nil counter.
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

// Record stores completed spans in order, each overwriting the oldest once the
// ring holds spanCap, and adds each one's duration to its layer's total: one
// critical section however many, so a run hands over all its tasks' spans at
// once. Nil-safe.
func (r *Registry) Record(spans ...Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	for _, s := range spans {
		if s.End < s.Start {
			s.End = s.Start
		}
		if len(r.spans) < spanCap {
			r.spans = append(r.spans, s)
		} else {
			r.spans[r.head] = s
			r.head = (r.head + 1) % spanCap
		}
		if i := layerSlot(s.Layer); i >= 0 {
			r.layerTime[i] += s.Duration()
			r.layerSeen |= 1 << i
		} else {
			if r.otherTime == nil {
				r.otherTime = make(map[Layer]time.Duration)
			}
			r.otherTime[s.Layer] += s.Duration()
		}
	}
	r.recorded += int64(len(spans))
	r.mu.Unlock()
}

// Spans returns a copy of the retained spans, oldest first: every span, or
// the most recent spanCap once more were recorded.
// Nil-safe.
func (r *Registry) Spans() []Span {
	spans, _ := r.window()
	return spans
}

// SpansRecorded returns how many spans were recorded, the ones Spans no
// longer holds included. Nil-safe.
func (r *Registry) SpansRecorded() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded
}

// window copies the retained spans, oldest first, and reads the lifetime
// count under the same lock.
func (r *Registry) window() ([]Span, int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.head:]...)
	return append(out, r.spans[:r.head]...), r.recorded
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

// ByLayer returns the total span time per layer — the "which layer is my
// dataflow spending time in" profile. It is exact however many spans the ring
// has dropped.
func (r *Registry) ByLayer() map[Layer]time.Duration {
	out := make(map[Layer]time.Duration)
	if r == nil {
		return out
	}
	r.mu.Lock()
	for i, d := range r.layerTime {
		if r.layerSeen&(1<<i) != 0 {
			out[layers[i]] = d
		}
	}
	for l, d := range r.otherTime {
		out[l] = d
	}
	r.mu.Unlock()
	return out
}

// Report renders a deterministic multi-line profile, layers then counters.
func (r *Registry) Report() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	byLayer := r.ByLayer()
	names := make([]string, 0, len(byLayer))
	for l := range byLayer {
		names = append(names, string(l))
	}
	sort.Strings(names)
	b.WriteString("time by layer:\n")
	for _, l := range names {
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

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
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
			frac := min(max((rank-float64(cum-c))/float64(c), 0), 1)
			return min(lower+time.Duration(frac*float64(upper-lower)), h.max)
		}
	}
	return h.max
}
