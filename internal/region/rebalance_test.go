package region

import (
	"bytes"
	"testing"

	"repro/internal/memsim"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// tieringManager builds a manager on a testbed with tiny device capacities
// so pressure is easy to create.
func tieringManager(t *testing.T, hbmCap int64) *Manager {
	t.Helper()
	cfg := topology.DefaultSingleNode()
	cfg.ScaleCap = func(s memsim.Spec) memsim.Spec {
		if s.Name == "HBM" {
			s.Capacity = hbmCap
		}
		return s
	}
	topo, err := topology.BuildSingleNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Topology: topo, Placer: placement.NewBestFit(topo), Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRebalancePromotesHotFarRegion(t *testing.T) {
	m := newManager(t)
	// Force a region into far memory despite it being byte-addressable work.
	h := mustAlloc(t, m, Spec{
		Name: "hot-index", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer h.Release()
	buf := make([]byte, 256)
	for i := 0; i < 32; i++ { // heat it up
		if f := h.ReadAsync(0, 0, buf); f.err != nil {
			t.Fatal(f.err)
		}
	}
	heat, err := m.Heat(h.ID())
	if err != nil || heat != 32 {
		t.Fatalf("heat = %d (%v), want 32", heat, err)
	}
	stats, err := m.Rebalance(0, RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Promoted != 1 {
		t.Fatalf("promoted = %d, want 1 (stats %+v)", stats.Promoted, stats)
	}
	if stats.Cost <= 0 || stats.BytesMoved != 4096 {
		t.Errorf("migration must cost time and move bytes: %+v", stats)
	}
	dev, _ := h.DeviceID()
	if dev == "memnode0/far0" {
		t.Error("hot region must have left far memory")
	}
	// Heat decayed.
	if heat, _ := m.Heat(h.ID()); heat != 16 {
		t.Errorf("heat after decay = %d, want 16", heat)
	}
}

func TestRebalanceLeavesColdRegionsAlone(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{
		Name: "cold", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer h.Release()
	stats, err := m.Rebalance(0, RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Promoted != 0 || stats.Demoted != 0 {
		t.Errorf("cold region must not move: %+v", stats)
	}
	dev, _ := h.DeviceID()
	if dev != "memnode0/far0" {
		t.Error("cold region must stay put")
	}
}

func TestRebalanceDemotesUnderPressure(t *testing.T) {
	// HBM shrunk to 64 KiB; fill it past the high watermark with cold
	// regions and verify demotion drains it to the low watermark.
	m := tieringManager(t, 64<<10)
	var handles []*Handle
	for i := 0; i < 15; i++ { // 15 × 4 KiB = 60 KiB of 64 KiB ⇒ 94%
		h, err := m.Alloc(Spec{
			Name: "filler", Class: props.Custom, Size: 4096, Owner: Owner(string(rune('a' + i))),
			Compute: "node0/cpu0",
			Req:     props.Requirements{Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require},
			Device:  "node0/hbm0",
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	hbm, _ := m.Topology().Memory("node0/hbm0")
	if u := hbm.Utilization(); u < 0.9 {
		t.Fatalf("setup: HBM utilization %.2f, want > 0.9", u)
	}
	stats, err := m.Rebalance(0, RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Demoted == 0 {
		t.Fatal("pressure must trigger demotion")
	}
	if u := hbm.Utilization(); u > 0.70 {
		t.Errorf("post-demotion utilization %.2f, want ≤ 0.70", u)
	}
	// Every region still satisfies its declared requirements.
	for _, h := range handles {
		dev, err := h.DeviceID()
		if err != nil {
			t.Fatal(err)
		}
		caps, _ := m.Topology().EffectiveCaps("node0/cpu0", dev)
		req := props.Requirements{Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require}
		if ok, viol := req.Match(caps); !ok {
			t.Errorf("demotion violated requirements: %s %v", dev, viol)
		}
		h.Release()
	}
}

func TestRebalancePreservesData(t *testing.T) {
	m := newManager(t)
	payload := []byte("data must survive tiering migrations byte for byte")
	h := mustAlloc(t, m, Spec{
		Name: "payload", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer h.Release()
	if f := h.WriteAsync(0, 100, payload); f.err != nil {
		t.Fatal(f.err)
	}
	for i := 0; i < 32; i++ {
		h.ReadAsync(0, 0, make([]byte, 64))
	}
	if _, err := m.Rebalance(0, RebalancePolicy{}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if f := h.ReadAsync(0, 100, got); f.err != nil {
		t.Fatal(f.err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload corrupted by migration: %q", got)
	}
}

func TestRebalanceReSealsConfidentialData(t *testing.T) {
	// A confidential region starts on far memory (sealed). Promotion to a
	// local device must unseal it; its content must stay intact; the
	// sealed flag must track the boundary.
	m := newManager(t)
	secret := []byte("patient history")
	h := mustAlloc(t, m, Spec{
		Name: "phi", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require, Confidential: true},
		Device: "memnode0/far0",
	})
	defer h.Release()
	if sealed, _ := h.Sealed(); !sealed {
		t.Fatal("confidential far region must start sealed")
	}
	if f := h.WriteAsync(0, 0, secret); f.err != nil {
		t.Fatal(f.err)
	}
	for i := 0; i < 32; i++ {
		h.ReadAsync(0, 0, make([]byte, 32))
	}
	if _, err := m.Rebalance(0, RebalancePolicy{}); err != nil {
		t.Fatal(err)
	}
	dev, _ := h.DeviceID()
	caps, _ := m.Topology().EffectiveCaps("node0/cpu0", dev)
	sealed, _ := h.Sealed()
	if caps.Remote && !sealed {
		t.Error("still remote but unsealed")
	}
	if !caps.Remote && sealed {
		t.Error("local region must not stay sealed")
	}
	got := make([]byte, len(secret))
	if f := h.ReadAsync(0, 0, got); f.err != nil {
		t.Fatal(f.err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("confidential payload corrupted: %q", got)
	}
}

func TestRebalanceSkipsSharedRegionsWithUnreachableOwners(t *testing.T) {
	// A shared region whose owners span CPU and GPU can only move to
	// devices both can address within requirements; verify owners all
	// still match after a pass.
	m := newManager(t)
	h := mustAlloc(t, m, Spec{
		Name: "shared", Class: props.GlobalScratch, Size: 4096, Owner: "t1", Compute: "node0/cpu0",
	})
	h2, err := h.Share("t2", "node0/gpu0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		h.ReadAsync(0, 0, make([]byte, 64))
	}
	if _, err := m.Rebalance(0, RebalancePolicy{}); err != nil {
		t.Fatal(err)
	}
	dev, _ := h.DeviceID()
	for _, comp := range []string{"node0/cpu0", "node0/gpu0"} {
		caps, ok := m.Topology().EffectiveCaps(comp, dev)
		if !ok {
			t.Fatalf("%s lost addressability to %s", comp, dev)
		}
		req := props.GlobalScratch.Defaults()
		if ok, viol := req.Match(caps); !ok {
			t.Errorf("shared placement %s violates %v for %s", dev, viol, comp)
		}
	}
	h2.Release()
	h.Release()
}

func TestHeatTracking(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 4096, Owner: "t", Compute: "node0/cpu0"})
	buf := make([]byte, 64)
	h.ReadAt(0, 0, buf)
	h.WriteAt(0, 0, buf)
	h.ReadAtRandom(0, 0, buf)
	if heat, err := m.Heat(h.ID()); err != nil || heat != 3 {
		t.Errorf("heat = %d (%v), want 3", heat, err)
	}
	h.Release()
	if _, err := m.Heat(h.ID()); err == nil {
		t.Error("heat of freed region must error")
	}
}
