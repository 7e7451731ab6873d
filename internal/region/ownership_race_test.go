package region

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/props"
	"repro/internal/telemetry"
)

// A share, a zero-copy transfer and a release that leaves another owner take
// only the region's lock, and Alloc publishes a region before its backing is
// zeroed, under that lock too. This test runs them beside a tiering sweep
// that demotes, evicts and recalls the same regions (run it under -race): a
// sweep that read a region's owners without its lock, or an Alloc that let
// go of the region before zeroing a recycled backing, is a data race here, and
// the second shows as a fresh region reading its last user's bytes.
// deviceFilled reports whether an Alloc was refused because its device filled
// up after the placer chose it: placement reads free capacity before Alloc
// re-checks the device and takes the manager lock, and another worker's
// region, a promotion or a recall may take the last block in between.
func deviceFilled(err error) bool {
	return errors.Is(err, ErrNoPlacement) || err != nil &&
		(strings.Contains(err.Error(), "out of memory") || strings.Contains(err.Error(), "capacity exhausted"))
}

func TestSweepBesideLockFreeOwnershipChanges(t *testing.T) {
	const workers, perWorker = 4, 4 // 16 regions of 4 KiB at most: twice what HBM holds
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	m := tieringManager(t, 32<<10)
	fe := newFakeExporter()
	m.SetExporter(fe)
	defer func(h uint64) { evictHeat = h }(evictHeat)
	evictHeat = math.MaxUint64
	computes := [2]string{"node0/cpu0", "node0/cpu1"}
	baseline := m.Live()

	var ranks, owners atomic.Int64
	next := func(prefix string) Owner { return Owner(fmt.Sprint(prefix, owners.Add(1))) }
	// lane is one region a worker owns: the handle of its current owner and
	// the sequence number of its last write, which every read must return.
	type lane struct {
		h   *Handle
		seq uint32
	}
	var dead sync.Map // *Handle → why it must never reach a region again
	var wg sync.WaitGroup
	fail := func(err error) bool {
		if err != nil {
			t.Error(err)
		}
		return err != nil
	}
	expectGone := func(h *Handle, why string) error {
		if _, err := h.ReadAt(0, 0, make([]byte, 64)); !gone(err) {
			return fmt.Errorf("access through a handle %s: %v", why, err)
		}
		dead.Store(h, why)
		return nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			clk := m.topo.NewTaskView()
			lanes := make([]*lane, perWorker)
			block := make([]byte, 64)
			full := make([]byte, 4096)
			// check reads l's block through h: l's own stamp, its last write.
			check := func(i int, l *lane, h *Handle) error {
				if _, err := h.ReadAt(0, 0, block); err != nil {
					return err
				}
				seq, err := readStamp(block, w*perWorker+i)
				if err == nil && seq != l.seq {
					err = fmt.Errorf("region %d read write %d, last write was %d", w*perWorker+i, seq, l.seq)
				}
				return err
			}
			for step := 0; step < steps; step++ {
				i := rng.Intn(perWorker)
				l := lanes[i]
				if l == nil { // allocate: a fresh region reads zeros, every byte
					h, err := m.Alloc(Spec{
						Name: "lane", Class: props.GlobalScratch, Size: 4096, Owner: next("own"),
						Compute: computes[rng.Intn(2)], Req: props.Requirements{Latency: props.LatencyLow}, Clock: clk,
					})
					if deviceFilled(err) {
						continue
					}
					if fail(err) {
						return
					}
					runtime.Gosched() // let a sweep at the region before its owner is
					if _, err := h.ReadAt(0, 0, full); fail(err) {
						return
					}
					for b, v := range full {
						if v != 0 {
							fail(fmt.Errorf("fresh region %d reads %#x at byte %d", h.ID(), v, b))
							return
						}
					}
					l = &lane{h: h}
					lanes[i] = l
					stamp(block, w*perWorker+i, 0)
					if _, err := h.WriteAt(0, 0, block); fail(err) {
						return
					}
				}
				switch rng.Intn(6) {
				case 0, 1: // write the next stamp
					stamp(block, w*perWorker+i, l.seq+1)
					if _, err := l.h.WriteAt(0, 0, block); fail(err) {
						return
					}
					l.seq++
				case 2: // a ranked sharer reads, then lets go: the owner stays
					sh, err := l.h.ShareRanked(next("sh"), computes[rng.Intn(2)], int(ranks.Add(1)))
					if fail(err) || fail(check(i, l, sh)) || fail(sh.Release()) || fail(expectGone(sh, "released by a sharer")) {
						return
					}
				case 3: // share, then the owner lets go: the sharer owns it now
					sh, err := l.h.ShareRanked(next("sh"), computes[rng.Intn(2)], int(ranks.Add(1)))
					if fail(err) || fail(l.h.Release()) || fail(expectGone(l.h, "released by an owner that shared it")) {
						return
					}
					l.h = sh
				case 4: // transfer; on a device both computes reach, zero-copy
					nh, _, err := l.h.Transfer(0, next("own"), computes[rng.Intn(2)])
					if fail(err) || fail(expectGone(l.h, "moved from")) {
						return
					}
					l.h = nh
				case 5: // the last owner lets go
					if fail(check(i, l, l.h)) || fail(l.h.Release()) || fail(expectGone(l.h, "to a freed region")) {
						return
					}
					lanes[i] = nil
					continue
				}
				if fail(check(i, l, l.h)) {
					return
				}
			}
			for _, l := range lanes {
				if l != nil {
					fail(l.h.Release())
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	// The sweeper, until the workers are done: demotion (HBM past its high
	// watermark), promotion and recall of the regions the workers heat, and
	// on every other sweep eviction of whatever is left over the eviction
	// watermark, however hot — not on every one, or HBM would seldom fill.
	var total RebalanceStats
	pols := [2]RebalancePolicy{{}, {EvictWatermark: 0.5}}
	for n, swept := 0, false; !swept; n++ {
		select {
		case <-stop:
			swept = true
		default:
			runtime.Gosched()
		}
		s, err := m.RebalanceIn(m.topo.NewTaskView(), 0, pols[n%2])
		fail(err)
		total.Demoted += s.Demoted
		total.Promoted += s.Promoted
		total.Exported += s.Exported
		total.Recalled += s.Recalled
	}

	recalls := m.reg.Counter(telemetry.LayerRegion, "recalls")
	t.Logf("sweeps: %+v; recalls %d", total, recalls)
	if total.Demoted == 0 || total.Exported == 0 || recalls == 0 {
		t.Errorf("sweeps %+v, %d recalls: want demotion, eviction and recall beside the ownership changes", total, recalls)
	}
	dead.Range(func(k, v any) bool {
		return !fail(expectGone(k.(*Handle), v.(string)))
	})
	if got := m.Live(); got != baseline {
		t.Errorf("%d regions live after every owner released, %d before", got, baseline)
	}
	for dev, b := range m.DeviceBytes() {
		if b != 0 {
			t.Errorf("%s accounts %d bytes after every owner released", dev, b)
		}
	}
	for _, dev := range m.topo.Memories() {
		if a := dev.Stats().Allocated; a != 0 {
			t.Errorf("%s: %d bytes still reserved", dev.ID, a)
		}
	}
	if n := fe.live(); n != 0 {
		t.Errorf("%d payloads left in the remote pool", n)
	}
	if err := m.Directory().CheckInvariants(); err != nil {
		t.Error(err)
	}
}
