package region

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/props"
	"repro/internal/telemetry"
)

// An access takes one lock, the region's own, and the manager changes a
// region under that lock too. These tests put the two on the same regions at
// once (run them under -race): whatever a mutator does to a region while
// accesses are in flight, an access sees the region's own bytes or a lifetime
// error, and the books balance afterwards.

// stamp fills a 64-byte block with sixteen copies of (seq<<8 | region), so a
// torn or foreign block cannot pass for a region's own.
func stamp(block []byte, region int, seq uint32) {
	for o := 0; o < len(block); o += 4 {
		binary.LittleEndian.PutUint32(block[o:], seq<<8|uint32(region))
	}
}

// readStamp returns the sequence number a block carries, or an error if the
// block is not one whole stamp of this region.
func readStamp(block []byte, region int) (uint32, error) {
	first := binary.LittleEndian.Uint32(block)
	for o := 4; o < len(block); o += 4 {
		if binary.LittleEndian.Uint32(block[o:]) != first {
			return 0, fmt.Errorf("torn block: % x", block)
		}
	}
	if int(first&0xff) != region {
		return 0, fmt.Errorf("block of region %d read through region %d", first&0xff, region)
	}
	return first >> 8, nil
}

// gone reports whether err is one of the ways an access is told its handle
// no longer reaches the region.
func gone(err error) bool {
	return errors.Is(err, ErrStaleHandle) || errors.Is(err, ErrFreed) || errors.Is(err, ErrNotOwner)
}

func TestLifetimeUnderTheRegionLock(t *testing.T) {
	const regions, moves, shares, sweeps = 15, 60, 60, 25
	m := tieringManager(t, 64<<10) // 15 × 4 KiB fill HBM past the high watermark
	fe := newFakeExporter()
	m.SetExporter(fe)
	computes := [2]string{"node0/cpu0", "node0/cpu1"}
	// Demote under pressure, promote and recall anything the accesses heat,
	// and evict every resident region on every sweep however hot, so accesses
	// keep finding their region on another device or gone to the pool.
	pol := RebalancePolicy{EvictWatermark: 1e-12}
	defer func(h uint64) { evictHeat = h }(evictHeat)
	evictHeat = math.MaxUint64

	type slot struct {
		cur       atomic.Pointer[Handle] // the exclusive owner's handle; Transfer replaces it
		committed atomic.Uint32          // last sequence number whose write returned
	}
	slots := make([]*slot, regions)
	for i := range slots {
		h := mustAlloc(t, m, Spec{
			Name: "live", Class: props.GlobalScratch, Size: 4096, Owner: Owner(fmt.Sprint("own", i)),
			Compute: computes[0], Device: "node0/hbm0", Clock: m.topo.NewTaskView(),
		})
		block := make([]byte, 64)
		stamp(block, i, 0)
		if _, err := h.WriteAt(0, 0, block); err != nil {
			t.Fatal(err)
		}
		slots[i] = new(slot)
		slots[i].cur.Store(h)
	}

	// check reads the region's block through h and holds it to the contract:
	// the region's own whole stamp, no older than the last write known to
	// have returned before the read began — or a lifetime error.
	check := func(i int, h *Handle) error {
		s := slots[i]
		atLeast := s.committed.Load()
		block := make([]byte, 64)
		if _, err := h.ReadAt(0, 0, block); err != nil {
			if gone(err) {
				return nil
			}
			return err
		}
		seq, err := readStamp(block, i)
		if err == nil && seq < atLeast {
			err = fmt.Errorf("read sequence %d after write %d returned", seq, atLeast)
		}
		return err
	}
	mustBeGone := func(h *Handle, why string) error {
		if _, err := h.ReadAt(0, 0, make([]byte, 64)); !gone(err) {
			return fmt.Errorf("access through a handle %s: %v", why, err)
		}
		return nil
	}

	// Writers and readers run for as long as the mutators have work, and
	// through the final frees; they yield after every access, or thirty
	// spinning goroutines would keep everyone else off two cores.
	var mutators, accessors sync.WaitGroup
	stop := make(chan struct{})
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	for i := range slots {
		i, s := i, slots[i]
		accessors.Add(2)
		go func() { // writer, until the region is freed
			defer accessors.Done()
			block := make([]byte, 64)
			for seq := uint32(1); ; runtime.Gosched() {
				stamp(block, i, seq)
				switch _, err := s.cur.Load().WriteAt(0, 0, block); {
				case err == nil:
					s.committed.Store(seq)
					seq++
				case errors.Is(err, ErrStaleHandle): // moved under us: retry through the new handle
				case errors.Is(err, ErrFreed):
					return
				default:
					fail(err)
					return
				}
			}
		}()
		go func() { // reader, until the region is gone for good
			defer accessors.Done()
			for ; ; runtime.Gosched() {
				select {
				case <-stop:
					return
				default:
					fail(check(i, s.cur.Load()))
				}
			}
		}()
	}
	// The first sweep runs here, under the reads and writes but before
	// anything else moves a region, so it finds HBM over its watermark.
	swept, err := m.RebalanceIn(m.topo.NewTaskView(), 0, pol)
	if err != nil || swept.Demoted == 0 || swept.Exported == 0 {
		t.Errorf("first sweep = %+v, %v; want demotions and evictions under the accesses", swept, err)
	}
	for i := range slots {
		i, s := i, slots[i]
		mutators.Add(2)
		go func() { // mover
			defer mutators.Done()
			for n := 0; n < moves; n++ {
				h := s.cur.Load()
				nh, _, err := h.Transfer(0, Owner(fmt.Sprint("own", i, "/", n)), computes[n%2])
				if errors.Is(err, ErrExclusive) { // a share is out right now
					runtime.Gosched()
					continue
				}
				if err != nil {
					fail(err)
					return
				}
				s.cur.Store(nh)
				fail(mustBeGone(h, "moved from"))
			}
		}()
		go func() { // sharer
			defer mutators.Done()
			for n := 0; n < shares; n++ {
				sh, err := s.cur.Load().Share(Owner(fmt.Sprint("sh", i, "/", n)), computes[n%2])
				if errors.Is(err, ErrStaleHandle) {
					continue
				}
				if err != nil {
					fail(err)
					return
				}
				fail(check(i, sh))
				fail(sh.Release())
				fail(mustBeGone(sh, "released"))
			}
		}()
	}
	mutators.Add(1)
	go func() { // sweeper
		defer mutators.Done()
		for n := 1; n < sweeps; n++ {
			_, err := m.RebalanceIn(m.topo.NewTaskView(), 0, pol)
			fail(err)
			runtime.Gosched()
		}
	}()

	mutators.Wait()
	for i, s := range slots { // free under the writers and readers
		h := s.cur.Load()
		fail(check(i, h))
		fail(h.Release())
		fail(mustBeGone(h, "to a freed region"))
	}
	close(stop)
	accessors.Wait()

	if got := m.reg.Counter(telemetry.LayerRegion, "recalls"); got == 0 {
		t.Error("no region was recalled: the accesses never met an exported region")
	}
	if m.Live() != 0 {
		t.Errorf("%d regions live after every owner released", m.Live())
	}
	for _, dev := range m.topo.Memories() {
		if a := dev.Stats().Allocated; a != 0 {
			t.Errorf("%s: %d bytes still allocated", dev.ID, a)
		}
	}
	if n := fe.live(); n != 0 {
		t.Errorf("%d payloads left in the remote pool", n)
	}
	if err := m.Directory().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// gatedExporter is a fakeExporter whose Fetch of one token announces itself
// and then waits to be let through — with the manager lock held, as every
// recall holds it.
type gatedExporter struct {
	*fakeExporter
	token           string
	entered, letGo  chan struct{}
	fetchesOfOthers atomic.Int32
}

func (g *gatedExporter) Fetch(token string, buf []byte) (cost time.Duration, err error) {
	if token == g.token {
		close(g.entered)
		<-g.letGo
	} else {
		g.fetchesOfOthers.Add(1)
	}
	return g.fakeExporter.Fetch(token, buf)
}

// TestAccessMeetsRecallInProgress is the escalation path. One access is held
// inside the recall of region X, so it holds the manager lock and nothing can
// be recalled; meanwhile several accesses find region Y exported, let go of
// it and queue for the manager lock. Exactly one of them recalls Y. The
// others find it home when their turn comes, go back in, and read the bytes.
func TestAccessMeetsRecallInProgress(t *testing.T) {
	m := newManager(t)
	g := &gatedExporter{fakeExporter: newFakeExporter(), entered: make(chan struct{}), letGo: make(chan struct{})}
	m.SetExporter(g)
	far := func(owner Owner) *Handle {
		return mustAlloc(t, m, Spec{
			Name: "cold", Class: props.Custom, Size: 4096, Owner: owner, Compute: "node0/cpu0",
			Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
			Device: "memnode0/far0", Clock: m.topo.NewTaskView(),
		})
	}
	x, y := far("x"), far("y")
	want := make([]byte, 64)
	stamp(want, 7, 42)
	if f := y.WriteAsync(0, 0, want); f.err != nil {
		t.Fatal(f.err)
	}
	if s := evictAll(t, m); s.Exported != 2 {
		t.Fatalf("sweep = %+v; want both regions exported", s)
	}
	g.token = x.r.token

	var wg sync.WaitGroup
	read := func(h *Handle, check bool) {
		defer wg.Done()
		got := make([]byte, 64)
		if f := h.ReadAsync(0, 0, got); f.err != nil {
			t.Error(f.err)
		} else if seq, err := readStamp(got, 7); check && (err != nil || seq != 42) {
			t.Errorf("read after recall: sequence %d, %v", seq, err)
		}
	}
	wg.Add(1)
	go read(x, false)
	<-g.entered // X's recall now holds the manager lock
	const readers = 6
	started := make(chan struct{}, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			started <- struct{}{}
			read(y, true)
		}()
	}
	for i := 0; i < readers; i++ {
		<-started
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let the readers reach the manager lock; the outcome holds either way
	}
	close(g.letGo)
	wg.Wait()

	if n := g.fetchesOfOthers.Load(); n != 1 {
		t.Errorf("region Y was fetched %d times, want exactly once", n)
	}
	if got := m.reg.Counter(telemetry.LayerRegion, "recalls"); got != 2 {
		t.Errorf("recalls = %d, want 2 (X and Y once each)", got)
	}
	// A recall asked for after the fact finds nothing to do.
	if err := m.recall(y.r); err != nil || g.fetchesOfOthers.Load() != 1 {
		t.Errorf("recall of a resident region: %v, %d fetches", err, g.fetchesOfOthers.Load())
	}
	for _, h := range []*Handle{x, y} {
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Live() != 0 || g.live() != 0 {
		t.Errorf("%d regions live, %d payloads in the pool", m.Live(), g.live())
	}
}

// TestHeatDecayLosesNoIncrement: accesses count heat under the region lock
// alone, the sweep halves it under the same lock: k accesses and one sweep
// leave exactly k>>1, from however many goroutines the accesses came.
func TestHeatDecayLosesNoIncrement(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{Name: "hot", Class: props.GlobalState, Size: 4096, Owner: "t",
		Compute: "node0/cpu0", Clock: m.topo.NewTaskView()})
	defer h.Release() //nolint:errcheck
	const goroutines, each = 8, 125
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < each; i++ {
				if _, err := h.ReadAt(0, 0, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := h.WriteAt(0, 0, make([]byte, 8)); err != nil { // k = 1001, odd
		t.Fatal(err)
	}
	if _, err := rebalance(m, 0, RebalancePolicy{}); err != nil {
		t.Fatal(err)
	}
	const k = goroutines*each + 1
	if heat, err := m.Heat(h.ID()); err != nil || heat != k>>1 {
		t.Errorf("heat after %d accesses and one sweep = %d (%v), want %d", k, heat, err, k>>1)
	}
}
