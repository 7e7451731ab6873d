package region

import (
	"errors"
	"testing"

	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/telemetry"
)

// recordFence captures every rank and deps argument the region layer passes
// to the pre-access fence. A nil deps entry means the full rank barrier was
// demanded.
type recordFence struct {
	ranks []int32
	calls [][]int32
}

func (f *recordFence) After(rank int32, deps []int32) error {
	f.ranks = append(f.ranks, rank)
	if deps == nil {
		f.calls = append(f.calls, nil)
	} else {
		cp := make([]int32, len(deps)) // stays non-nil when empty
		copy(cp, deps)
		f.calls = append(f.calls, cp)
	}
	return nil
}

// fenceFunc adapts a function to the Fence interface.
type fenceFunc func(deps []int32) error

func (f fenceFunc) After(_ int32, deps []int32) error { return f(deps) }

// TestFenceReceivesTheHandlesRank: the fence orders an access at the rank of
// the handle it went through, whatever made the handle — a rebound one its
// own, one a Transfer made its source's, one ShareRanked made the rank it was
// granted at, and one an open Share made its parent's — so the fence needs
// nothing of the task to know where the access stands.
func TestFenceReceivesTheHandlesRank(t *testing.T) {
	m := newManager(t)
	rec := &recordFence{}
	buf := make([]byte, 16)
	read := func(h *Handle) {
		t.Helper()
		if _, err := h.ReadAt(0, 0, buf); err != nil {
			t.Fatal(err)
		}
	}

	// A rebound handle, made coherent by a ranked share.
	out := mustAlloc(t, m, Spec{Name: "out", Class: props.GlobalScratch, Size: 64,
		Owner: "prod", Compute: "node0/cpu0"})
	out.Rebind(clockOf(m), 2, rec)
	ranked, err := out.ShareRanked("c6", "node0/cpu0", 6)
	if err != nil {
		t.Fatal(err)
	}
	read(out)
	read(ranked)

	// An open share of a handle at rank 4.
	g := mustAlloc(t, m, Spec{Name: "g", Class: props.GlobalState, Size: 64,
		Owner: "job", Compute: "node0/cpu0"})
	g.Rebind(clockOf(m), 4, rec)
	open, err := g.Share("outsider", "node0/cpu0")
	if err != nil {
		t.Fatal(err)
	}
	read(open)

	// A transferred handle, on a region a ranked share made coherent: the
	// share is let go first, as a transfer needs its source alone.
	tr := mustAlloc(t, m, Spec{Name: "tr", Class: props.GlobalScratch, Size: 64,
		Owner: "a", Compute: "node0/cpu0"})
	tr.Rebind(clockOf(m), 3, rec)
	b, err := tr.ShareRanked("b", "node0/cpu0", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	moved, _, err := tr.Transfer(0, "a2", "node0/cpu0")
	if err != nil {
		t.Fatal(err)
	}
	read(moved)

	want := []int32{2, 6, 4, 3}
	if !depsEqual(rec.ranks, want) {
		t.Errorf("the fence ordered accesses at ranks %v, want %v (rebound, ShareRanked, open Share, Transfer)", rec.ranks, want)
	}
}

func depsEqual(a, b []int32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShareRankedFencesOnlyAgainstLowerSharers verifies the happens-before
// sharer set: an access through a ranked handle on a closed-sharing region
// must fence only against the region's recorded sharers below its own rank —
// never demand the full barrier (nil), and never list higher ranks.
func TestShareRankedFencesOnlyAgainstLowerSharers(t *testing.T) {
	m := newManager(t)
	rec := &recordFence{}
	h := mustAlloc(t, m, Spec{Name: "out", Class: props.GlobalScratch, Size: 256,
		Owner: "prod", Compute: "node0/cpu0"})
	h.Rebind(clockOf(m), 1, rec) // producer at rank 1

	c3, err := h.ShareRanked("c3", "node0/cpu0", 3)
	if err != nil {
		t.Fatal(err)
	}
	c5, err := h.ShareRanked("c5", "node0/cpu0", 5)
	if err != nil {
		t.Fatal(err)
	}
	c3.Rebind(clockOf(m), 3, rec)
	c5.Rebind(clockOf(m), 5, rec)

	buf := make([]byte, 64)
	if _, err := h.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c5.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	want := [][]int32{
		{},     // producer (rank 1): no lower sharers, but NOT a full barrier
		{1},    // rank 3 waits for the producer only
		{1, 3}, // rank 5 waits for the producer and the rank-3 consumer
	}
	if len(rec.calls) != len(want) {
		t.Fatalf("fence calls = %v, want %v", rec.calls, want)
	}
	for i := range want {
		if !depsEqual(rec.calls[i], want[i]) {
			t.Errorf("fence call %d deps = %v, want %v", i, rec.calls[i], want[i])
		}
	}
}

// TestOpenShareDemandsFullBarrier verifies the conservative fallback: a
// region shared through the rank-blind Share path (job globals, user-level
// sharing) must demand the full rank barrier (nil deps) on every fenced
// access — future joiners with lower ranks are unknowable there — even when
// the region also has recorded ranked sharers.
func TestOpenShareDemandsFullBarrier(t *testing.T) {
	m := newManager(t)
	rec := &recordFence{}
	h := mustAlloc(t, m, Spec{Name: "g", Class: props.GlobalState, Size: 128,
		Owner: "job", Compute: "node0/cpu0"})
	h.Rebind(clockOf(m), 2, rec)

	if _, err := h.ShareRanked("c4", "node0/cpu0", 4); err != nil {
		t.Fatal(err)
	}
	sh, err := h.Share("joiner", "node0/cpu0") // open sharing: set is no longer closed
	if err != nil {
		t.Fatal(err)
	}
	sh.Rebind(clockOf(m), 7, rec)

	buf := make([]byte, 32)
	if _, err := sh.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 2 {
		t.Fatalf("fence calls = %d, want 2", len(rec.calls))
	}
	for i, deps := range rec.calls {
		if deps != nil {
			t.Errorf("fence call %d deps = %v, want nil (full barrier)", i, deps)
		}
	}
}

// TestUnrankedHandleDemandsFullBarrier: a fenced handle that never learned a
// rank cannot prove anything about ordering and must keep the full barrier.
func TestUnrankedHandleDemandsFullBarrier(t *testing.T) {
	m := newManager(t)
	rec := &recordFence{}
	h := mustAlloc(t, m, Spec{Name: "out", Class: props.GlobalScratch, Size: 64,
		Owner: "prod", Compute: "node0/cpu0"})
	h.Rebind(clockOf(m), -1, rec) // fence installed, rank at the unranked default
	if _, err := h.ShareRanked("c2", "node0/cpu0", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(0, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 || rec.calls[0] != nil {
		t.Fatalf("fence calls = %v, want one nil (full barrier)", rec.calls)
	}
}

// TestFenceErrorAbortsAccess: a fence rejection must surface as the access
// error and leave the payload untouched.
func TestFenceErrorAbortsAccess(t *testing.T) {
	m := newManager(t)
	boom := errors.New("aborted")
	h := mustAlloc(t, m, Spec{Name: "out", Class: props.GlobalScratch, Size: 64,
		Owner: "prod", Compute: "node0/cpu0"})
	h.Rebind(clockOf(m), 1, fenceFunc(func([]int32) error { return boom }))
	if _, err := h.ShareRanked("c2", "node0/cpu0", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(0, 0, []byte("nope")); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want fence error", err)
	}
}

// TestCoherenceCostTopologyMissIsNotFree pins the bugfix for the silent
// under-pricing: when the effective-caps lookup for the accessing compute
// fails, the directory protocol must still be charged (at the pessimistic
// manager default) and the miss must be counted, instead of returning 0.
func TestCoherenceCostTopologyMissIsNotFree(t *testing.T) {
	reg := telemetry.NewRegistry()
	topo := newManager(t).topo
	m, err := NewManager(Config{Topology: topo, Placer: placement.NewFirstFit(topo), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := mustAlloc(t, m, Spec{Name: "s", Class: props.GlobalState, Size: 256,
		Owner: "a", Compute: "node0/cpu0"})
	if _, err := h.Share("b", "node0/cpu0"); err != nil {
		t.Fatal(err)
	}
	h.r.mu.Lock()
	cost := h.coherenceCost(nil, 0, 128, true)
	h.r.mu.Unlock()
	if cost <= 0 {
		t.Errorf("coherence cost on caps miss = %v, want > 0", cost)
	}
	if got := reg.Counter(telemetry.LayerCoherence, "topology_miss"); got == 0 {
		t.Error("topology_miss counter not recorded")
	}
}
