package props

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func capDRAM() Capabilities {
	return Capabilities{
		Latency:         90 * time.Nanosecond,
		Bandwidth:       100e9,
		Granularity:     64,
		ByteAddressable: true,
		Coherent:        true,
		Sync:            true,
		FreeCapacity:    1 << 38,
	}
}

func capSSD() Capabilities {
	return Capabilities{
		Latency:      80 * time.Microsecond,
		Bandwidth:    3e9,
		Granularity:  4096,
		Persistent:   true,
		FreeCapacity: 1 << 43,
	}
}

func capFar() Capabilities {
	return Capabilities{
		Latency:         2 * time.Microsecond,
		Bandwidth:       12e9,
		Granularity:     256,
		ByteAddressable: true,
		Remote:          true,
		FreeCapacity:    1 << 42,
	}
}

func TestTriSatisfied(t *testing.T) {
	cases := []struct {
		tri  Tri
		v    bool
		want bool
	}{
		{Any, true, true},
		{Any, false, true},
		{Require, true, true},
		{Require, false, false},
		{Forbid, true, false},
		{Forbid, false, true},
	}
	for _, c := range cases {
		if got := c.tri.Satisfied(c.v); got != c.want {
			t.Errorf("%s.Satisfied(%t) = %t, want %t", c.tri, c.v, got, c.want)
		}
	}
}

func TestLatencyClassOrdering(t *testing.T) {
	if !(LatencyLow.Ceiling() < LatencyMedium.Ceiling() && LatencyMedium.Ceiling() < LatencyHigh.Ceiling()) {
		t.Fatal("latency class ceilings must be strictly increasing")
	}
	if ClassifyLatency(50*time.Nanosecond) != LatencyLow {
		t.Error("50ns should classify as low")
	}
	if ClassifyLatency(300*time.Nanosecond) != LatencyMedium {
		t.Error("300ns should classify as medium")
	}
	if ClassifyLatency(50*time.Microsecond) != LatencyHigh {
		t.Error("50µs should classify as high")
	}
	if ClassifyLatency(8*time.Millisecond) != LatencyBulk {
		t.Error("8ms should classify as bulk")
	}
}

func TestMatchCapacity(t *testing.T) {
	r := Requirements{Capacity: 1 << 40}
	c := capDRAM() // 256 GiB free
	ok, vs := r.Match(c)
	if ok {
		t.Fatal("1 TiB request must not match 256 GiB device")
	}
	if len(vs) != 1 || vs[0].Field != "capacity" {
		t.Fatalf("want single capacity violation, got %v", vs)
	}
}

func TestMatchLatencyClass(t *testing.T) {
	r := Requirements{Latency: LatencyLow}
	if ok, _ := r.Match(capDRAM()); !ok {
		t.Error("DRAM (90ns) should satisfy LatencyLow")
	}
	if ok, _ := r.Match(capSSD()); ok {
		t.Error("SSD (80µs) must not satisfy LatencyLow")
	}
	r = Requirements{Latency: LatencyHigh}
	if ok, _ := r.Match(capSSD()); !ok {
		t.Error("SSD should satisfy LatencyHigh (≤100µs)")
	}
}

func TestMatchAbsoluteLatencyOverridesClass(t *testing.T) {
	r := Requirements{Latency: LatencyBulk, MaxLatency: 100 * time.Nanosecond}
	if ok, _ := r.Match(capDRAM()); !ok {
		t.Error("DRAM within 100ns ceiling")
	}
	if ok, _ := r.Match(capFar()); ok {
		t.Error("far memory (2µs) must fail a 100ns absolute ceiling")
	}
}

func TestMatchPersistence(t *testing.T) {
	r := Requirements{Persistent: Require, Latency: LatencyBulk}
	if ok, _ := r.Match(capDRAM()); ok {
		t.Error("volatile DRAM must not satisfy Require persistent")
	}
	if ok, _ := r.Match(capSSD()); !ok {
		t.Error("SSD must satisfy Require persistent")
	}
	r = Requirements{Persistent: Forbid, Latency: LatencyBulk}
	if ok, _ := r.Match(capSSD()); ok {
		t.Error("SSD must not satisfy Forbid persistent")
	}
}

func TestMatchBandwidthFloor(t *testing.T) {
	r := Requirements{MinBandwidth: 50e9, Latency: LatencyBulk}
	if ok, _ := r.Match(capDRAM()); !ok {
		t.Error("DRAM at 100 GB/s should pass a 50 GB/s floor")
	}
	if ok, _ := r.Match(capSSD()); ok {
		t.Error("SSD at 3 GB/s must fail a 50 GB/s floor")
	}
}

func TestScorePrefersFasterDevice(t *testing.T) {
	r := Requirements{Latency: LatencyBulk}
	if r.Score(capDRAM()) <= r.Score(capSSD()) {
		t.Error("DRAM must outscore SSD for an unconstrained request")
	}
}

func TestScorePenalizesRemoteConfidential(t *testing.T) {
	r := Requirements{Latency: LatencyBulk, Confidential: true}
	base := Requirements{Latency: LatencyBulk}
	if r.Score(capFar()) >= base.Score(capFar()) {
		t.Error("confidential request must score remote device lower")
	}
}

func TestScoreConservesPremiumDevices(t *testing.T) {
	// An undemanding request should prefer DRAM over an otherwise identical
	// persistent device, leaving persistence capacity for tasks that need it.
	dram := capDRAM()
	pmem := dram
	pmem.Persistent = true
	r := Requirements{Latency: LatencyBulk}
	if r.Score(dram) <= r.Score(pmem) {
		t.Error("scratch request should prefer the volatile device")
	}
	rp := Requirements{Latency: LatencyBulk, Persistent: Require}
	if ok, _ := rp.Match(pmem); !ok {
		t.Error("persistent request must still match the persistent device")
	}
}

func TestMergeTightensConstraints(t *testing.T) {
	a := Requirements{Capacity: 100, Latency: LatencyHigh, Persistent: Require}
	b := Requirements{Capacity: 200, Latency: LatencyLow, Coherent: Require, Confidential: true}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity != 200 {
		t.Errorf("capacity = %d, want max 200", m.Capacity)
	}
	if m.Latency != LatencyLow {
		t.Errorf("latency = %s, want tightest (low)", m.Latency)
	}
	if m.Persistent != Require || m.Coherent != Require {
		t.Error("merge must keep both Require constraints")
	}
	if !m.Confidential {
		t.Error("confidentiality must be sticky under merge")
	}
}

func TestMergeConflict(t *testing.T) {
	a := Requirements{Persistent: Require}
	b := Requirements{Persistent: Forbid}
	if _, err := Merge(a, b); err == nil {
		t.Fatal("Require vs Forbid must be a merge conflict")
	}
}

func TestRequirementsString(t *testing.T) {
	r := Requirements{Capacity: 64, Latency: LatencyLow, Persistent: Require, Confidential: true}
	s := r.String()
	for _, want := range []string{"cap=64", "lat=low", "require:persist", "confidential"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if (Requirements{}).String() != "{}" {
		t.Errorf("empty requirements should render {}")
	}
}

// quickCaps builds arbitrary-but-sane capabilities from fuzzer inputs.
func quickCaps(lat uint32, bw uint32, free uint32, flags uint8) Capabilities {
	return Capabilities{
		Latency:         time.Duration(lat%10_000_000) * time.Nanosecond,
		Bandwidth:       float64(bw%1000) * 1e9,
		Granularity:     64,
		ByteAddressable: flags&1 != 0,
		Coherent:        flags&2 != 0,
		Sync:            flags&4 != 0,
		Persistent:      flags&8 != 0,
		Remote:          flags&16 != 0,
		FreeCapacity:    int64(free),
	}
}

// Property: improving a device (more free capacity, lower latency, more
// bandwidth, adding features a request might require) never turns a match
// into a non-match. Matching is monotone in capabilities.
func TestMatchMonotoneInCapabilities(t *testing.T) {
	f := func(lat, bw, free uint32, flags uint8, capReq uint32, latClass uint8) bool {
		c := quickCaps(lat, bw, free, flags)
		r := Requirements{
			Capacity: int64(capReq % (free + 1)),
			Latency:  LatencyClass(latClass % 5),
		}
		ok, _ := r.Match(c)
		if !ok {
			return true // only check preservation of matches
		}
		better := c
		better.Latency /= 2
		better.Bandwidth *= 2
		better.FreeCapacity *= 2
		ok2, _ := r.Match(better)
		return ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Matches is Match without the diagnostics — the two agree on
// every requirement × capability pair, a mismatch names exactly the violated
// constraints, and both agree with the constraint list written out
// independently here. Every hard-constraint field is exercised, including the
// absolute MaxLatency ceiling, the bandwidth floor and all four Tri fields.
func TestMatchesAgreesWithMatch(t *testing.T) {
	f := func(lat, bw, free uint32, flags uint8, capReq, maxLat, minBW uint32, latClass, tris uint8) bool {
		c := quickCaps(lat, bw, free, flags)
		r := Requirements{
			Capacity:     int64(capReq % 3 * (free/2 + 1)), // 0, fits, or may not fit
			Latency:      LatencyClass(latClass % 5),
			MinBandwidth: float64(minBW%3) * float64(bw%1000) * 0.75e9, // 0, below, above
			Persistent:   Tri(tris % 3),
			Coherent:     Tri(tris / 3 % 3),
			Sync:         Tri(tris / 9 % 3),
			ByteAddr:     Tri(tris / 27 % 3),
			Confidential: flags&32 != 0, // soft: must not affect matching
			PreferLocal:  flags&64 != 0,
		}
		if maxLat%2 == 1 {
			r.MaxLatency = time.Duration(maxLat%10_000_000) * time.Nanosecond
		}
		ceiling := r.Latency.Ceiling()
		if r.MaxLatency > 0 {
			ceiling = r.MaxLatency
		}
		want := map[string]bool{
			"capacity":   r.Capacity > 0 && c.FreeCapacity < r.Capacity,
			"latency":    c.Latency > ceiling,
			"bandwidth":  r.MinBandwidth > 0 && c.Bandwidth < r.MinBandwidth,
			"persistent": !r.Persistent.Satisfied(c.Persistent),
			"coherent":   !r.Coherent.Satisfied(c.Coherent),
			"sync":       !r.Sync.Satisfied(c.Sync),
			"byteaddr":   !r.ByteAddr.Satisfied(c.ByteAddressable),
		}
		violated := 0
		for _, v := range want {
			if v {
				violated++
			}
		}
		ok, vs := r.Match(c)
		if r.Matches(c) != ok || ok != (violated == 0) || len(vs) != violated {
			t.Logf("%s vs %+v: Matches %t, Match %t %v, want violations %v", r, c, r.Matches(c), ok, vs, want)
			return false
		}
		for _, v := range vs {
			if !want[v.Field] {
				t.Logf("%s vs %+v: spurious violation %s", r, c, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// Property: Merge is commutative on non-conflicting inputs, and the merged
// requirement matches a device only if both inputs match it.
func TestMergeSoundness(t *testing.T) {
	f := func(capA, capB uint16, latA, latB uint8, triA, triB uint8, lat uint32, bw, free uint32, flags uint8) bool {
		a := Requirements{Capacity: int64(capA), Latency: LatencyClass(latA % 5), Persistent: Tri(triA % 3)}
		b := Requirements{Capacity: int64(capB), Latency: LatencyClass(latB % 5), Persistent: Tri(triB % 3)}
		m1, err1 := Merge(a, b)
		m2, err2 := Merge(b, a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if m1 != m2 {
			return false
		}
		c := quickCaps(lat, bw, free, flags)
		okM, _ := m1.Match(c)
		if !okM {
			return true
		}
		okA, _ := a.Match(c)
		okB, _ := b.Match(c)
		return okA && okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Score is finite for all sane inputs (no NaN/Inf creeping into
// the placement optimizer's ranking).
func TestScoreFinite(t *testing.T) {
	f := func(lat, bw, free uint32, flags uint8, conf bool) bool {
		r := Requirements{Latency: LatencyBulk, Confidential: conf}
		s := r.Score(quickCaps(lat, bw, free, flags))
		return !math.IsNaN(s) && !math.IsInf(s, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRegionClassDefaults(t *testing.T) {
	// Table 2: Private Scratch {noncoherent, sync}, Global State
	// {coherent, sync}, Global Scratch {coherent, async}.
	ps := PrivateScratch.Defaults()
	if ps.Sync != Require {
		t.Error("Private Scratch must require sync access")
	}
	if ps.Coherent == Require {
		t.Error("Private Scratch must not require coherence")
	}
	gs := GlobalState.Defaults()
	if gs.Coherent != Require || gs.Sync != Require {
		t.Error("Global State must require {coherent, sync}")
	}
	gsc := GlobalScratch.Defaults()
	if gsc.Coherent != Require {
		t.Error("Global Scratch must require coherence")
	}
	if gsc.Sync == Require {
		t.Error("Global Scratch is accessed asynchronously; must not require sync")
	}
}

func TestRegionClassSharingRules(t *testing.T) {
	if PrivateScratch.Shareable() {
		t.Error("Private Scratch is visible to only one thread")
	}
	if PrivateScratch.Transferable() {
		t.Error("Private Scratch is not transferable (paper §2.3)")
	}
	if !GlobalState.Shareable() || !GlobalScratch.Shareable() {
		t.Error("global regions must be shareable")
	}
	if !Transfer.Transferable() {
		t.Error("Transfer regions exist to be transferred")
	}
}

func TestRegionClassString(t *testing.T) {
	names := map[RegionClass]string{
		PrivateScratch: "Private Scratch",
		GlobalState:    "Global State",
		GlobalScratch:  "Global Scratch",
		Transfer:       "Transfer",
		Custom:         "Custom",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestStringRenderings(t *testing.T) {
	// Tri names.
	for tri, want := range map[Tri]string{Any: "any", Require: "require", Forbid: "forbid"} {
		if tri.String() != want {
			t.Errorf("Tri(%d).String() = %q", tri, tri.String())
		}
	}
	if Tri(9).String() == "" {
		t.Error("unknown Tri must still render")
	}
	// LatencyClass names.
	for c, want := range map[LatencyClass]string{
		LatencyAny: "any", LatencyLow: "low", LatencyMedium: "medium",
		LatencyHigh: "high", LatencyBulk: "bulk",
	} {
		if c.String() != want {
			t.Errorf("LatencyClass(%d).String() = %q", c, c.String())
		}
	}
	if LatencyClass(99).String() == "" {
		t.Error("unknown class must still render")
	}
	// Violations carry field and detail.
	v := Violation{Field: "latency", Detail: "too slow"}
	if v.String() != "latency: too slow" {
		t.Errorf("Violation.String() = %q", v.String())
	}
	// Custom class has no defaults; unknown classes render.
	if (Custom.Defaults() != Requirements{}) {
		t.Error("Custom defaults must be empty")
	}
	if RegionClass(77).String() == "" || (RegionClass(77).Defaults() != Requirements{}) {
		t.Error("unknown class must render and default empty")
	}
}
