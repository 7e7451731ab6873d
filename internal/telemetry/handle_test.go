package telemetry

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestResolvedCounterIsUnlistedUntilAdded: resolving a counter must not
// change what Counters and Report print — a layer that resolves its hot
// counters at construction looks, until it first adds to them, exactly like
// one that never did. Add(0) lists the counter at 0, as Registry.Add always
// has.
func TestResolvedCounterIsUnlistedUntilAdded(t *testing.T) {
	r := NewRegistry()
	empty := r.Report()
	c := r.Handle(LayerRegion, "bytes_read")
	h := r.HistHandle(LayerRuntime, "server_queue_wait")
	if got := r.Counters(); len(got) != 0 {
		t.Errorf("Counters() after Handle = %v, want empty", got)
	}
	if r.Report() != empty {
		t.Errorf("Report() changed by resolving handles:\n%s", r.Report())
	}
	if r.Hist(LayerRuntime, "server_queue_wait") != nil {
		t.Error("Hist() must stay nil until something was observed")
	}
	if r.Counter(LayerRegion, "bytes_read") != 0 {
		t.Error("an unlisted counter reads 0")
	}

	c.Add(0)
	if got, want := r.Counters(), map[string]int64{"region/bytes_read": 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("Counters() after Add(0) = %v, want %v", got, want)
	}
	c.Add(64)
	r.Add(LayerRegion, "bytes_read", 6) // the cold wrapper reaches the same counter
	if again := r.Handle(LayerRegion, "bytes_read"); again != c {
		t.Error("Handle must resolve a name to one object")
	}
	if got := r.Counter(LayerRegion, "bytes_read"); got != 70 {
		t.Errorf("bytes_read = %d, want 70", got)
	}
	h.Observe(time.Millisecond)
	r.Observe(LayerRuntime, "server_queue_wait", time.Millisecond)
	if got := r.Hist(LayerRuntime, "server_queue_wait"); got != h || got.Count() != 2 {
		t.Errorf("Hist() = %p (count %d), want the resolved histogram with 2 samples", got, h.Count())
	}
	want := "time by layer:\ncounters:\n  region/bytes_read                70\nhistograms:\n" +
		"  runtime/server_queue_wait        n=2 mean=1ms p50=550µs p99=991µs p999=999.1µs max=1ms\n"
	if got := r.Report(); got != want {
		t.Errorf("Report() =\n%s\nwant\n%s", got, want)
	}
}

// TestNilHandlesAreNoops: a nil registry hands out nil handles, and adding
// to them is as safe as adding to the nil registry.
func TestNilHandlesAreNoops(t *testing.T) {
	var r *Registry
	r.Handle(LayerApp, "x").Add(1)
	r.HistHandle(LayerApp, "x").Observe(time.Second)
	r.Observe(LayerApp, "x", time.Second)
	if r.Hist(LayerApp, "x") != nil {
		t.Error("nil registry has no histograms")
	}
}

// TestCounterAddAllocatesNothing: the hot half of the counter API is one
// atomic add, and the cold wrapper no longer builds a key string either.
func TestCounterAddAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Handle(LayerRegion, "bytes_read")
	h := r.HistHandle(LayerRuntime, "server_queue_wait")
	for name, fn := range map[string]func(){
		"Counter.Add":       func() { c.Add(64) },
		"Registry.Add":      func() { r.Add(LayerRegion, "bytes_written", 64) },
		"Histogram.Observe": func() { h.Observe(time.Microsecond) },
		"Registry.Observe":  func() { r.Observe(LayerRuntime, "server_queue_wait", time.Microsecond) },
	} {
		fn()
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s allocates %.0f per call, want 0", name, got)
		}
	}
}

// TestConcurrentHandleAdds: handles resolved and added to from many
// goroutines, with a reader polling, lose nothing (run under -race).
func TestConcurrentHandleAdds(t *testing.T) {
	r := NewRegistry()
	const workers, adds = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				r.Counters()
				_ = r.Report()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Handle(LayerRegion, "shared")
			for i := 0; i < adds; i++ {
				c.Add(1)
				r.Add(LayerRegion, "cold", 2)
				r.Observe(LayerRuntime, "w", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-polled
	if got := r.Counter(LayerRegion, "shared"); got != workers*adds {
		t.Errorf("shared = %d, want %d", got, workers*adds)
	}
	if got := r.Counter(LayerRegion, "cold"); got != 2*workers*adds {
		t.Errorf("cold = %d, want %d", got, 2*workers*adds)
	}
	if got := r.Hist(LayerRuntime, "w").Count(); got != workers*adds {
		t.Errorf("histogram count = %d, want %d", got, workers*adds)
	}
}
