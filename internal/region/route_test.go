package region

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// A handle caches its resolved route. The cache can go stale in exactly
// three ways — the region moves, the graph changes, or the pair never
// resolved — and each is pinned here against the behaviour of a handle that
// has no cache to go stale.

// uncached returns a copy of h that has never resolved a route: what a
// caller holds who took a fresh handle after the move.
func uncached(h *Handle) *Handle {
	c := *h
	c.rt, c.deps = nil, nil
	return &c
}

// probe drives a fixed mix of reads and writes through h and returns every
// completion time.
func probe(t *testing.T, h *Handle) []time.Duration {
	t.Helper()
	var out []time.Duration
	buf := make([]byte, 512)
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		var f *Future
		if i%2 == 0 {
			f = h.ReadAsync(now, int64(i)*64, buf[:64<<(i%3)])
		} else {
			f = h.WriteAsync(now, int64(i)*64, buf[:64<<(i%3)])
		}
		done, err := f.Await(now)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, done)
		now = done / 2 // the queue, not the caller's clock, carries the backlog
	}
	return out
}

// TestCachedRouteFollowsTheRegion: a long-lived handle whose region is
// promoted, demoted, or exported and recalled prices its next accesses
// exactly as a fresh handle taken after the move does.
func TestCachedRouteFollowsTheRegion(t *testing.T) {
	farSpec := func(clk topology.VClock) Spec {
		return Spec{
			Name: "moving", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
			Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
			Device: "memnode0/far0", Clock: clk,
		}
	}
	moves := map[string]func(t *testing.T) (h *Handle, moved bool){
		"promotion": func(t *testing.T) (*Handle, bool) {
			m := newManager(t)
			h := mustAlloc(t, m, farSpec(m.topo.NewEpoch()))
			heatRegion(t, h) // resolves and caches the route to far memory
			if s, err := m.Rebalance(0, RebalancePolicy{}); err != nil || s.Promoted != 1 {
				t.Fatalf("sweep = %+v, %v; want one promotion", s, err)
			}
			return h, true
		},
		"demotion": func(t *testing.T) (*Handle, bool) {
			m := tieringManager(t, 64<<10)
			var coldest *Handle
			for i := 0; i < 15; i++ { // 60 of 64 KiB: over the high watermark
				h := mustAlloc(t, m, Spec{
					Name: "filler", Class: props.Custom, Size: 4096, Owner: Owner(fmt.Sprint("o", i)),
					Compute: "node0/cpu0", Device: "node0/hbm0", Clock: m.topo.NewTaskView(),
					Req: props.Requirements{Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require},
				})
				if i == 0 {
					coldest = h // touched once: the first victim
					if _, err := h.ReadAt(0, 0, make([]byte, 64)); err != nil {
						t.Fatal(err)
					}
				} else {
					heatRegion(t, h)
				}
			}
			if s, err := m.Rebalance(0, RebalancePolicy{PromoteHeat: 1 << 30}); err != nil || s.Demoted == 0 {
				t.Fatalf("sweep = %+v, %v; want demotions", s, err)
			}
			return coldest, true
		},
		"export and recall": func(t *testing.T) (*Handle, bool) {
			m := newManager(t)
			m.SetExporter(newFakeExporter())
			h := mustAlloc(t, m, farSpec(nil)) // priced on the device-global queues
			if f := h.WriteAsync(0, 0, []byte("payload")); f.err != nil {
				t.Fatal(f.err)
			}
			if s := evictAll(t, m); s.Exported != 1 {
				t.Fatalf("sweep = %+v; want one export", s)
			}
			return h, false // recalled onto its unchanged home device
		},
	}
	for name, move := range moves {
		t.Run(name, func(t *testing.T) {
			long, moved := move(t)
			before := long.rt
			if before == nil {
				t.Fatal("setup: the handle never resolved a route")
			}
			got := probe(t, long)
			other, _ := move(t)
			want := probe(t, uncached(other))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("long-lived handle completes at %v, a fresh handle at %v", got, want)
			}
			dev, err := long.DeviceID()
			if err != nil {
				t.Fatal(err)
			}
			if long.rt.Mem.ID != dev {
				t.Errorf("handle routes to %s, region lives on %s", long.rt.Mem.ID, dev)
			}
			if moved == (long.rt == before) {
				t.Errorf("route re-resolved = %v, region moved = %v", long.rt != before, moved)
			}
		})
	}
}

// islands builds two disconnected halves, each one CPU and one DRAM, plus a
// NIC-attached far memory reachable only from island a.
func islands(t *testing.T) *topology.Topology {
	t.Helper()
	topo := topology.New()
	link := func(a, b string, kind topology.LinkKind, lat time.Duration) {
		if err := topo.Connect(topology.Link{A: a, B: b, Kind: kind, Latency: lat, Bandwidth: 1e10, Coherent: kind != topology.LinkNIC}); err != nil {
			t.Fatal(err)
		}
	}
	for _, side := range []string{"a", "b"} {
		if err := topo.AddCompute(&topology.ComputeDevice{ID: side + "/cpu", Kind: topology.CPU, Gops: 1}); err != nil {
			t.Fatal(err)
		}
		d, err := memsim.NewDevice(side+"/dram", memsim.DRAMSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.AddMemory(d); err != nil {
			t.Fatal(err)
		}
		link(side+"/cpu", side+"/dram", topology.LinkMemBus, 50*time.Nanosecond)
	}
	far, err := memsim.NewDevice("a/far", memsim.DRAMSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddMemory(far); err != nil {
		t.Fatal(err)
	}
	link("a/cpu", "a/far", topology.LinkNIC, 2*time.Microsecond)
	return topo
}

// TestSyncCheckAndUnresolvedRoutes: the sync check lives in the access path
// now, and must still separate the three cases — a synchronous route, a
// route that resolves but only asynchronously, and a pair with no route.
func TestSyncCheckAndUnresolvedRoutes(t *testing.T) {
	topo := islands(t)
	m, err := NewManager(Config{Topology: topo, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	alloc := func(dev string) *Handle {
		return mustAlloc(t, m, Spec{Name: dev, Class: props.Custom, Size: 4096, Owner: "t", Compute: "a/cpu",
			Req: props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require}, Device: dev})
	}

	// A DRAM region reached over the NIC: resolves, but not synchronously.
	far := alloc("a/far")
	for i := 0; i < 2; i++ { // second round runs against the cached route
		if _, err := far.ReadAt(0, 0, buf); !errors.Is(err, ErrSyncFarAccess) {
			t.Errorf("round %d: ReadAt over the NIC err = %v, want ErrSyncFarAccess", i, err)
		}
		if _, err := far.WriteAt(0, 0, buf); !errors.Is(err, ErrSyncFarAccess) {
			t.Errorf("round %d: WriteAt over the NIC err = %v, want ErrSyncFarAccess", i, err)
		}
		if _, err := far.ReadAtRandom(0, 0, buf); !errors.Is(err, ErrSyncFarAccess) {
			t.Errorf("round %d: ReadAtRandom over the NIC err = %v, want ErrSyncFarAccess", i, err)
		}
		if done, err := far.ReadAsync(0, 0, buf).Await(0); err != nil || done <= 0 {
			t.Errorf("round %d: ReadAsync through the same handle = %v, %v", i, done, err)
		}
	}
	if heat, _ := m.Heat(far.ID()); heat != 2 {
		t.Errorf("heat = %d: a rejected synchronous access must not count as an access", heat)
	}

	// The same region through a handle on the other island: no route at all.
	local := alloc("a/dram")
	if _, err := local.ReadAt(0, 0, buf); err != nil {
		t.Fatalf("local sync read: %v", err)
	}
	stranded := uncached(local)
	stranded.compute = "b/cpu"
	for i := 0; i < 2; i++ {
		if _, err := stranded.ReadAt(0, 0, buf); !errors.Is(err, ErrSyncFarAccess) {
			t.Errorf("round %d: ReadAt with no route err = %v, want ErrSyncFarAccess", i, err)
		}
		_, err := stranded.ReadAsync(0, 0, buf).Await(0)
		if err == nil || err.Error() != "topology: no path b/cpu→a/dram" {
			t.Errorf("round %d: ReadAsync with no route err = %v, want the no-path error", i, err)
		}
	}
	if stranded.rt != nil {
		t.Error("an unresolved pair must not leave a cached route behind")
	}

	// Linking the islands changes the graph under every cached route.
	cached := local.rt
	if err := topo.Connect(topology.Link{A: "a/cpu", B: "b/cpu", Kind: topology.LinkUPI, Latency: 100 * time.Nanosecond, Bandwidth: 1e10, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := stranded.ReadAt(0, 0, buf); err != nil {
		t.Errorf("ReadAt after the islands were linked: %v", err)
	}
	if _, err := local.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if local.rt == cached || !local.rt.Valid() {
		t.Error("Connect must make a handle re-resolve its cached route")
	}
}

// TestAccessAllocatesNothing: a synchronous 64-byte access to an exclusive
// region under a task view — the access every task body makes thousands of
// times — takes no heap allocation, and neither does one to a ranked-shared
// region once the handle's fence buffer and the directory's state for the
// touched lines exist.
func TestAccessAllocatesNothing(t *testing.T) {
	m := newManager(t)
	view := m.topo.NewTaskView()
	excl := mustAlloc(t, m, Spec{Name: "x", Class: props.Transfer, Size: 1 << 16, Owner: "t", Compute: "node0/cpu0", Clock: view})
	prod := mustAlloc(t, m, Spec{Name: "s", Class: props.GlobalScratch, Size: 1 << 16, Owner: "p", Compute: "node0/cpu0", Clock: view})
	prod.Rebind(view, 0, fenceFunc(func([]int) error { return nil }))
	cons, err := prod.ShareRanked("c", "node0/cpu0", 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	i := 0
	for name, h := range map[string]*Handle{"exclusive": excl, "ranked-shared": cons} {
		for op, fn := range map[string]func(time.Duration, int64, []byte) (time.Duration, error){"ReadAt": h.ReadAt, "WriteAt": h.WriteAt} {
			access := func() {
				i++
				if _, err := fn(0, int64(i%4)*64, buf); err != nil {
					t.Fatal(err)
				}
			}
			for warm := 0; warm < 4; warm++ {
				access()
			}
			if got := testing.AllocsPerRun(200, access); got != 0 {
				t.Errorf("%s %s allocates %.0f per call, want 0", name, op, got)
			}
		}
	}
}

// hammer runs workers goroutines, each making accesses to its own region of
// one manager, and returns the counters a report would print.
func hammer(t *testing.T, workers, accesses int, poll bool) (map[string]int64, memsim.Stats) {
	t.Helper()
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{Topology: topo, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	dram, _ := topo.Memory("node0/dram0")
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for poll {
			select {
			case <-stop:
				return
			default:
				dram.Stats()
				reg.Counters()
			}
		}
	}()
	work := func(w int) error {
		epoch := topo.NewEpoch()
		h, err := m.Alloc(Spec{Name: "w", Class: props.Custom, Size: 1 << 14, Owner: Owner(fmt.Sprint("w", w)),
			Compute: "node0/cpu0", Device: "node0/dram0", Clock: epoch,
			Req: props.Requirements{Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require}})
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		for i := 0; i < accesses; i++ {
			if _, err := h.WriteAt(0, int64(i%256)*64, buf[:1+i%64]); err != nil {
				return err
			}
			if _, err := h.ReadAt(0, int64(i%256)*64, buf); err != nil {
				return err
			}
		}
		return h.Release()
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if !poll { // the sequential reference
			errs <- work(w)
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- work(w)
		}(w)
	}
	wg.Wait()
	close(stop)
	<-polled
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return reg.Counters(), dram.Stats()
}

// TestConcurrentAccessCountsMatchSequential: the access path counts with
// atomics — device counters and registry counters — and takes no lock for
// it, so a concurrent run with a reader polling both must end on exactly the
// sequential run's numbers (run under -race).
func TestConcurrentAccessCountsMatchSequential(t *testing.T) {
	const workers, accesses = 8, 400
	wantCounters, wantStats := hammer(t, workers, accesses, false)
	gotCounters, gotStats := hammer(t, workers, accesses, true)
	if !reflect.DeepEqual(gotCounters, wantCounters) {
		t.Errorf("registry counters: concurrent %v, sequential %v", gotCounters, wantCounters)
	}
	gotStats.BusyUntil, wantStats.BusyUntil = 0, 0 // every worker prices in its own epoch
	if gotStats != wantStats {
		t.Errorf("device stats: concurrent %+v, sequential %+v", gotStats, wantStats)
	}
	if wantStats.Reads != workers*accesses || wantCounters["region/bytes_read"] != workers*accesses*64 {
		t.Errorf("sequential run miscounted: %+v %v", wantStats, wantCounters)
	}
}

// TestHandleFillsItsSizeClass: a handle is allocated per owner of every task
// output, and one more word would take each into the 144-byte size class.
func TestHandleFillsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Handle{}); size > 128 {
		t.Errorf("a Handle is %d bytes, more than the 128-byte size class it filled", size)
	}
}

// BenchmarkRegionAccess is the cost of one 64-byte synchronous access under
// a task view: the unit the serving path multiplies by thousands per job.
// bench/BENCH_region_baseline.json gates it (allocs/op at zero tolerance).
// shared/cold is the access the serving traffic actually makes to a shared
// region — the first touch of a line, in a region that lives one job: every
// 128 accesses are the whole life of a window's output (allocated, shared to
// a second device, its 64 lines read once through each handle, released), so
// an allocation per cold line shows as allocs/op and the region's own
// dozen, once per 128 accesses, do not.
// The parallel cases are tasks as the wavefront runs them — each goroutine
// its own region, handle and view on the one manager — on one core and on
// two: accesses to different regions share no lock and no counter, so the
// second core must not make an access dearer.
func BenchmarkRegionAccess(b *testing.B) {
	m := newManager(b)
	view := m.topo.NewTaskView()
	excl, err := m.Alloc(Spec{Name: "x", Class: props.Transfer, Size: 1 << 16, Owner: "t", Compute: "node0/cpu0", Clock: view})
	if err != nil {
		b.Fatal(err)
	}
	prod, err := m.Alloc(Spec{Name: "s", Class: props.GlobalScratch, Size: 1 << 16, Owner: "p", Compute: "node0/cpu0", Clock: view})
	if err != nil {
		b.Fatal(err)
	}
	prod.Rebind(view, 0, fenceFunc(func([]int) error { return nil }))
	shared, err := prod.ShareRanked("c", "node0/cpu0", 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, c := range []struct {
		name string
		op   func(time.Duration, int64, []byte) (time.Duration, error)
	}{
		{"exclusive/read", excl.ReadAt}, {"exclusive/write", excl.WriteAt},
		{"shared/read", shared.ReadAt}, {"shared/write", shared.WriteAt},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.op(0, int64(i%1024)*64, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("shared/cold", func(b *testing.B) {
		b.ReportAllocs()
		var hs [2]*Handle
		var err error
		for i := 0; i < b.N; i++ {
			if i%128 == 0 {
				for _, h := range hs {
					if h != nil {
						h.Release() //nolint:errcheck
					}
				}
				if hs[0], err = m.Alloc(Spec{Name: "w", Class: props.GlobalScratch, Size: 4096, Owner: "p", Compute: "node0/cpu0", Clock: view}); err != nil {
					b.Fatal(err)
				}
				if hs[1], err = hs[0].ShareRanked("c", "node0/cpu1", 1); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := hs[i%128/64].ReadAt(0, int64(i%64)*64, buf); err != nil {
				b.Fatal(err)
			}
		}
		for _, h := range hs {
			h.Release() //nolint:errcheck
		}
	})
	// Not b.RunParallel: at a fixed -benchtime its goroutines share out the
	// iterations a handful at a time through one atomic counter, and on two
	// cores that counter's cache line is the dearest thing in the loop.
	for _, cores := range []int{1, 2} {
		b.Run(fmt.Sprint("parallel/cores=", cores), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
			b.ReportAllocs()
			var wg sync.WaitGroup
			for g := 0; g < cores; g++ {
				wg.Add(1)
				go func(g, n int) {
					defer wg.Done()
					view := m.topo.NewTaskView()
					h, err := m.Alloc(Spec{Name: "p", Class: props.Transfer, Size: 1 << 16,
						Owner: Owner(fmt.Sprint("t", g)), Compute: "node0/cpu0", Clock: view})
					if err != nil {
						b.Error(err)
						return
					}
					defer h.Release() //nolint:errcheck
					defer view.Publish()
					buf := make([]byte, 64)
					for i := 0; i < n; i++ {
						op := h.ReadAt
						if i%2 == 1 {
							op = h.WriteAt
						}
						if _, err := op(0, int64(i%1024)*64, buf); err != nil {
							b.Error(err)
							return
						}
					}
				}(g, b.N/cores)
			}
			wg.Wait()
		})
	}
}
