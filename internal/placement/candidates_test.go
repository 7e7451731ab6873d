package placement

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/topology"
)

// referenceFilter is the candidate pass computed from scratch, the way the
// policies did before they shared candidate lists: every device's
// capabilities — free capacity included — and hard-constraint match derived
// on the spot. It returns the matching devices in device order, with their
// dense indexes and scores.
func referenceFilter(topo *topology.Topology, req props.Requirements, computeID string) []candidate {
	var out []candidate
	for i, dev := range topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		caps, ok := topo.EffectiveCaps(computeID, dev.ID)
		if !ok {
			continue
		}
		if ok, _ := req.Match(caps); ok {
			out = append(out, candidate{dev: dev, idx: i, score: req.Score(caps)})
		}
	}
	return out
}

// referencePick is each policy's rule applied to the reference filter: the
// device it must choose, or "" when nothing matches.
func referencePick(policy string, seed int64, req props.Requirements, computeID string, now time.Duration, clk *topology.TaskView, list []candidate) string {
	if len(list) == 0 {
		return ""
	}
	switch policy {
	case "first-fit":
		return list[0].dev.ID
	case "random":
		var ids []string
		for _, c := range list {
			ids = append(ids, c.dev.ID)
		}
		sort.Strings(ids)
		h := fnv.New64a()
		fmt.Fprintf(h, "%d\x00%s\x00%#v\x00%d", seed, computeID, req, now)
		return ids[h.Sum64()%uint64(len(ids))]
	}
	pick, pickScore := "", 0.0
	for _, c := range list {
		s := c.score
		if policy == "worst-fit" {
			s = -s
		} else if clk != nil {
			s -= backlogPenalty(clk.BusyAt(c.idx), now)
		}
		if pick == "" || s > pickScore {
			pick, pickScore = c.dev.ID, s
		}
	}
	return pick
}

// placer is what the tests drive: every policy of the package.
type placer interface {
	Place(req props.Requirements, c *topology.ComputeDevice, now time.Duration, clk *topology.TaskView) (int, error)
	Name() string
	byID(req props.Requirements, computeID string, place func(*topology.ComputeDevice) (int, error)) (string, error)
}

// placeByID is p's Place called by compute device ID and answering with the
// memory device's ID, as BestFit.PlaceEpoch is best-fit's.
func placeByID(p placer, req props.Requirements, computeID string, now time.Duration, clk *topology.TaskView) (string, error) {
	return p.byID(req, computeID, func(c *topology.ComputeDevice) (int, error) { return p.Place(req, c, now, clk) })
}

// TestCachedBestFitMatchesFresh drives one long-lived placer of each policy
// through a sequence that interleaves placements with everything that may
// change their outcome — a device filling up, a backlog appearing on a clock
// view — and checks every decision (device, error text) against a placer
// built fresh for that one call and against the policy's rule applied to the
// from-scratch reference filter.
func TestCachedBestFitMatchesFresh(t *testing.T) {
	const seed = 11
	topo := testbed(t)
	policies := []func() placer{
		func() placer { return NewBestFit(topo) },
		func() placer { return NewWorst(topo) },
		func() placer { return NewRandom(topo, seed) },
		func() placer { return NewFirstFit(topo) },
	}
	cached := make([]placer, len(policies))
	for i, mk := range policies {
		cached[i] = mk()
	}

	reqs := []props.Requirements{
		{Capacity: 1 << 20},
		{Capacity: 1 << 20, Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require, PreferLocal: true},
		{Capacity: 1 << 16, Latency: props.LatencyMedium, Persistent: props.Require},
		{Capacity: 1 << 16, Latency: props.LatencyMedium, Coherent: props.Require, Confidential: true},
		{Capacity: 1 << 12, MaxLatency: 150 * time.Nanosecond},
		{Capacity: 1 << 12, MinBandwidth: 500e9},
		{Capacity: 1 << 12, Latency: props.LatencyLow, Persistent: props.Require}, // nothing fits
		{Latency: props.LatencyHigh, Sync: props.Forbid},                          // no capacity demand
	}
	computes := []string{"node0/cpu0", "node0/cpu1", "node0/gpu0", "node0/fpga0", "nowhere/cpu9"}

	step := 0
	check := func(label string, now time.Duration, clk *topology.TaskView) {
		t.Helper()
		for _, comp := range computes {
			for _, req := range reqs {
				list := referenceFilter(topo, req, comp)
				for i, mk := range policies {
					step++
					var refClk *topology.TaskView
					if step%2 == 0 {
						refClk = clk // a clockless call is blind to backlog
					}
					got, gotErr := placeByID(cached[i], req, comp, now, refClk)
					want, wantErr := placeByID(mk(), req, comp, now, refClk)
					name := cached[i].Name()
					refDev := referencePick(name, seed, req, comp, now, refClk, list)
					if got != want || got != refDev {
						t.Fatalf("%s: %s: %s from %s: cached %q, fresh %q, reference %q", label, name, req, comp, got, want, refDev)
					}
					refErr := "<nil>"
					if refDev == "" {
						refErr = fmt.Sprintf("placement: no device satisfies the request: %s from %s", req, comp)
					}
					if fmt.Sprint(gotErr) != refErr || fmt.Sprint(wantErr) != refErr {
						t.Fatalf("%s: %s: %s from %s: cached error %q, fresh error %q, reference %q", label, name, req, comp, gotErr, wantErr, refErr)
					}
					// Place is the same decision by index.
					if c, ok := topo.Compute(comp); ok {
						idx, err := cached[i].Place(req, c, now, refClk)
						if err != nil && (refDev != "" || err.Error() != refErr) || err == nil && topo.Memories()[idx].ID != refDev {
							t.Fatalf("%s: %s: %s from %s: Place (%d, %v), reference %q", label, name, req, comp, idx, err, refDev)
						}
					}
				}
			}
		}
	}

	clk := topo.NewTaskView()
	check("initial", 0, clk)
	check("warm", 0, clk) // the same shapes again, now from resolved lists

	// A backlog on the clock, then on a copy of it.
	rt, ok := topo.Route("node0/cpu0", "node0/dram0")
	if !ok {
		t.Fatal("no route to dram0")
	}
	clk.AccessRoute(rt, 0, 64<<20, memsim.Write, memsim.Sequential)
	check("backlog", 0, clk)
	view := topo.NewTaskView()
	view.Reset(clk)
	view.AccessRoute(rt, 0, 256<<20, memsim.Write, memsim.Sequential)
	check("copied backlog", 10*time.Microsecond, view)

	// A device fills up: free capacity is read per call, never resolved.
	hbm, _ := topo.Memory("node0/hbm0")
	if err := hbm.Reserve(hbm.Free() - 1<<14); err != nil {
		t.Fatal(err)
	}
	check("hbm nearly full", 0, clk)
	hbm.Release(1 << 30)
	check("hbm freed", 0, clk)
}

// TestRandomIsOrderIndependent: a random pick is a function of its inputs,
// not of the placements asked before it, so two placers with one seed agree
// however their calls are ordered; the picks still spread.
func TestRandomIsOrderIndependent(t *testing.T) {
	topo := testbed(t)
	type call struct {
		req  props.Requirements
		comp string
		now  time.Duration
	}
	var calls []call
	for i := 0; i < 64; i++ {
		calls = append(calls, call{
			req:  props.Requirements{Capacity: int64(4096 << (i % 4)), Latency: props.LatencyBulk},
			comp: []string{"node0/cpu0", "node0/cpu1", "node0/gpu0"}[i%3],
			now:  time.Duration(i) * time.Microsecond,
		})
	}
	forward, backward := NewRandom(topo, 3), NewRandom(topo, 3)
	picks := make([]string, len(calls))
	for i, c := range calls {
		dev, err := placeByID(forward, c.req, c.comp, c.now, nil)
		if err != nil {
			t.Fatal(err)
		}
		picks[i] = dev
	}
	spread := map[string]bool{}
	for i := len(calls) - 1; i >= 0; i-- {
		c := calls[i]
		dev, err := placeByID(backward, c.req, c.comp, c.now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dev != picks[i] {
			t.Fatalf("call %d (%s from %s at %v): %q in reverse order, %q in order", i, c.req, c.comp, c.now, dev, picks[i])
		}
		spread[dev] = true
	}
	if len(spread) < 2 {
		t.Errorf("%d random picks all landed on %v", len(calls), spread)
	}
}

// TestCandidateCacheBounded: request shapes that never repeat (a bandwidth
// floor computed per request) must not grow the cache past its bound, and
// the optimizer keeps answering correctly across the drops.
func TestCandidateCacheBounded(t *testing.T) {
	topo := testbed(t)
	b := NewBestFit(topo)
	hot := props.Requirements{Capacity: 1 << 20, Latency: props.LatencyLow}
	want, err := b.PlaceEpoch(hot, "node0/cpu0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*maxShapes; i++ {
		req := props.Requirements{Capacity: 4096, MinBandwidth: float64(i + 1)}
		if _, err := b.PlaceEpoch(req, "node0/cpu0", 0, nil); err != nil {
			t.Fatal(err)
		}
		b.mu.Lock()
		n := len(b.shapes)
		b.mu.Unlock()
		if n > maxShapes {
			t.Fatalf("after %d distinct shapes the cache holds %d lists, bound %d", i+1, n, maxShapes)
		}
	}
	if got, err := b.PlaceEpoch(hot, "node0/cpu0", 0, nil); err != nil || got != want {
		t.Fatalf("after the cache was dropped: %q, %v; want %q", got, err, want)
	}
}

// TestConcurrentPlacementsAgree: goroutines that resolve and read the same
// shapes at once (and push the cache through its bound while they do) get
// the decisions a single caller gets. Run under -race.
func TestConcurrentPlacementsAgree(t *testing.T) {
	topo := testbed(t)
	reqs := make([]props.Requirements, 64)
	for i := range reqs {
		reqs[i] = props.Requirements{Capacity: 4096, Latency: props.LatencyClass(i % 5), MinBandwidth: float64(i/5) * 1e9}
	}
	want := make([]string, len(reqs))
	seq := NewBestFit(topo)
	for i, req := range reqs {
		want[i], _ = seq.PlaceEpoch(req, "node0/cpu0", 0, nil)
	}
	shared := NewBestFit(topo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40*len(reqs); n++ {
				i := (n + g*7) % len(reqs)
				if got, _ := shared.PlaceEpoch(reqs[i], "node0/cpu0", 0, nil); got != want[i] {
					t.Errorf("goroutine %d: %s placed on %q, want %q", g, reqs[i], got, want[i])
					return
				}
				if g == 0 { // one goroutine floods the cache with one-off shapes
					shared.PlaceEpoch(props.Requirements{Capacity: 64, MaxLatency: time.Duration(n+1) * time.Second}, "node0/cpu1", 0, nil) //nolint:errcheck
				}
			}
		}(g)
	}
	wg.Wait()
}

// warmPlaceEpoch returns one placement on the reference testbed — the
// per-output-allocation decision of the serving path — with its shape
// resolved, so that what remains is the steady state.
func warmPlaceEpoch(tb testing.TB) func() {
	topo := testbed(tb)
	bf := NewBestFit(topo)
	view := topo.NewTaskView()
	req := props.Requirements{Capacity: 1 << 16, Latency: props.LatencyMedium}
	place := func() {
		if _, err := bf.PlaceEpoch(req, "node0/cpu0", 0, view); err != nil {
			tb.Fatal(err)
		}
	}
	place()
	return place
}

// BenchmarkPlaceEpoch is one warm placement. It must not allocate.
func BenchmarkPlaceEpoch(b *testing.B) {
	place := warmPlaceEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
	}
}

// TestPlaceEpochAllocatesNothing pins the benchmark's allocation claim in
// the ordinary test run.
func TestPlaceEpochAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(200, warmPlaceEpoch(t)); n != 0 {
		t.Fatalf("a warm PlaceEpoch allocates %v objects, want 0", n)
	}
}
