package region

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/coherence"
	"repro/internal/props"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func newManager(t testing.TB) *Manager {
	t.Helper()
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Topology: topo, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustAlloc(t *testing.T, m *Manager, spec Spec) *Handle {
	t.Helper()
	h, err := m.Alloc(spec)
	if err != nil {
		t.Fatalf("alloc %+v: %v", spec, err)
	}
	return h
}

func TestAllocValidation(t *testing.T) {
	m := newManager(t)
	if _, err := m.Alloc(Spec{Size: 0, Owner: "t", Compute: "node0/cpu0"}); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := m.Alloc(Spec{Size: 64, Compute: "node0/cpu0"}); err == nil {
		t.Error("missing owner must fail")
	}
	if _, err := m.Alloc(Spec{Size: 64, Owner: "t", Compute: "nope"}); err == nil {
		t.Error("unknown compute must fail")
	}
}

func TestAllocAndReadWrite(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{Name: "buf", Class: props.PrivateScratch, Size: 4096, Owner: "t1", Compute: "node0/cpu0"})
	want := []byte("the output of task one")
	done, err := h.WriteAt(0, 100, want)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("write must consume virtual time")
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(done, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read %q, want %q", got, want)
	}
	if sz, _ := h.Size(); sz != 4096 {
		t.Errorf("size = %d", sz)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 0 {
		t.Error("release of last owner must free the region")
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 128, Owner: "t", Compute: "node0/cpu0"})
	defer h.Release()
	buf := make([]byte, 64)
	if _, err := h.ReadAt(0, 100, buf); !errors.Is(err, ErrOutOfBounds) {
		t.Error("read past end must fail")
	}
	if _, err := h.WriteAt(0, -1, buf); !errors.Is(err, ErrOutOfBounds) {
		t.Error("negative offset must fail")
	}
}

func TestUseAfterFree(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 64, Owner: "t", Compute: "node0/cpu0"})
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(0, 0, make([]byte, 8)); !errors.Is(err, ErrFreed) {
		t.Errorf("use after free err = %v, want ErrFreed", err)
	}
	if err := h.Release(); !errors.Is(err, ErrFreed) {
		t.Error("double release must fail")
	}
}

// TestFreedBackingsAreBoundedByBytesAndReadZero: a burst of large regions
// freed at once leaves the manager holding no more than backingFreeBytes of
// their backings — a bound in bytes, so it holds whatever the regions' size —
// and a recycled backing handed to a smaller region of the same class reads
// all zeros, as a fresh allocation would.
func TestFreedBackingsAreBoundedByBytesAndReadZero(t *testing.T) {
	m := newManager(t)
	const size = 1 << 20
	dirty := bytes.Repeat([]byte{0xa5}, size)
	hs := make([]*Handle, 64)
	for i := range hs {
		hs[i] = mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: size, Owner: "t", Compute: "node0/cpu0"})
		if _, err := hs[i].WriteAt(0, 0, dirty); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hs {
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	held := m.backing.Held()
	if held == 0 || held > backingFreeBytes {
		t.Fatalf("manager retains %d B of freed backings, want some and at most %d", held, backingFreeBytes)
	}

	const smaller = size/2 + 64 // same 1 MiB block class
	h := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: smaller, Owner: "t", Compute: "node0/cpu0"})
	if after := m.backing.Held(); after != held-size {
		t.Fatalf("retained %d B after one reuse, want %d: the region did not take a recycled backing", after, held-size)
	}
	got := make([]byte, smaller)
	if _, err := h.ReadAt(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, smaller)) {
		t.Error("a recycled backing shows its last region's bytes")
	}
}

func TestClassPlacementFromCPU(t *testing.T) {
	// Table 2 regions allocated from a CPU must land on devices that honour
	// the class properties.
	m := newManager(t)
	for _, tc := range []struct {
		class props.RegionClass
	}{{props.PrivateScratch}, {props.GlobalState}, {props.GlobalScratch}} {
		h := mustAlloc(t, m, Spec{Class: tc.class, Size: 1 << 20, Owner: "t", Compute: "node0/cpu0"})
		dev, err := h.DeviceID()
		if err != nil {
			t.Fatal(err)
		}
		caps, ok := m.Topology().EffectiveCaps("node0/cpu0", dev)
		if !ok {
			t.Fatalf("no caps for %s", dev)
		}
		if ok, viol := tc.class.Defaults().Match(caps); !ok {
			t.Errorf("%s placed on %s violating %v", tc.class, dev, viol)
		}
		h.Release()
	}
}

func TestTransferZeroCopy(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{Class: props.Transfer, Size: 1 << 20, Owner: "j/t1", Compute: "node0/cpu0"})
	devBefore, _ := h.DeviceID()
	if _, err := h.WriteAt(0, 0, []byte("handover payload")); err != nil {
		t.Fatal(err)
	}
	h2, done, err := h.Transfer(0, "j/t2", "node0/cpu1")
	if err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Errorf("zero-copy transfer must be free, cost %v", done)
	}
	devAfter, _ := h2.DeviceID()
	if devAfter != devBefore {
		t.Errorf("zero-copy transfer must not move data: %s → %s", devBefore, devAfter)
	}
	// Source handle is dead (move semantics).
	if _, err := h.ReadAt(0, 0, make([]byte, 4)); !errors.Is(err, ErrStaleHandle) {
		t.Errorf("stale handle err = %v, want ErrStaleHandle", err)
	}
	// Receiver sees the bytes.
	got := make([]byte, 16)
	if _, err := h2.ReadAt(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "handover payload" {
		t.Errorf("payload = %q", got)
	}
	h2.Release()
}

func TestTransferMigratesWhenUnaddressable(t *testing.T) {
	m := newManager(t)
	// A low-latency region for the GPU lands on GDDR; handing it to a CPU
	// violates the latency requirement from the CPU's side, forcing a copy.
	h := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 1 << 20, Owner: "j/t1", Compute: "node0/gpu0"})
	dev, _ := h.DeviceID()
	if dev != "node0/gddr0" {
		t.Fatalf("GPU private scratch on %s, want GDDR", dev)
	}
	if _, err := h.WriteAt(0, 0, []byte("gpu bytes")); err != nil {
		t.Fatal(err)
	}
	// Private Scratch is not transferable; use a transferable custom region
	// with the same latency demand.
	h.Release()
	h = mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 1 << 20, Owner: "j/t1", Compute: "node0/gpu0",
		Req: props.Requirements{Latency: props.LatencyLow, Sync: props.Require, ByteAddr: props.Require},
	})
	if dev, _ = h.DeviceID(); dev != "node0/gddr0" {
		t.Fatalf("custom low-latency GPU region on %s, want GDDR", dev)
	}
	if _, err := h.WriteAt(0, 0, []byte("gpu bytes")); err != nil {
		t.Fatal(err)
	}
	h2, done, err := h.Transfer(0, "j/t2", "node0/cpu0")
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("migrating transfer must cost virtual time")
	}
	devAfter, _ := h2.DeviceID()
	if devAfter == "node0/gddr0" {
		t.Error("region must have migrated off GDDR")
	}
	got := make([]byte, 9)
	if _, err := h2.ReadAt(done, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "gpu bytes" {
		t.Errorf("migrated payload = %q", got)
	}
	h2.Release()
}

func TestTransferRules(t *testing.T) {
	m := newManager(t)
	ps := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 64, Owner: "t1", Compute: "node0/cpu0"})
	if _, _, err := ps.Transfer(0, "t2", "node0/cpu0"); !errors.Is(err, ErrNotMovable) {
		t.Error("private scratch must not transfer")
	}
	ps.Release()
	gs := mustAlloc(t, m, Spec{Class: props.GlobalScratch, Size: 64, Owner: "t1", Compute: "node0/cpu0"})
	h2, err := gs.Share("t2", "node0/cpu1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gs.Transfer(0, "t3", "node0/cpu0"); !errors.Is(err, ErrExclusive) {
		t.Error("shared region must not transfer")
	}
	h2.Release()
	gs.Release()
}

func TestShareRules(t *testing.T) {
	m := newManager(t)
	ps := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 64, Owner: "t1", Compute: "node0/cpu0"})
	if _, err := ps.Share("t2", "node0/cpu1"); !errors.Is(err, ErrNotShareable) {
		t.Error("private scratch must not share")
	}
	ps.Release()

	gs := mustAlloc(t, m, Spec{Class: props.GlobalState, Size: 4096, Owner: "t1", Compute: "node0/cpu0"})
	h2, err := gs.Share("t2", "node0/cpu1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Share("t2", "node0/cpu1"); err == nil {
		t.Error("duplicate share must fail")
	}
	// Both owners see each other's writes (same backing).
	if _, err := gs.WriteAt(0, 0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if _, err := h2.ReadAt(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Error("shared owners must see the same bytes")
	}
	// Region survives until the last owner releases.
	if err := gs.Release(); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 1 {
		t.Error("region must survive first release")
	}
	if err := h2.Release(); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 0 {
		t.Error("region must free after last release")
	}
}

func TestSharedAccessPaysCoherence(t *testing.T) {
	m := newManager(t)
	excl := mustAlloc(t, m, Spec{Class: props.GlobalState, Size: 4096, Owner: "t1", Compute: "node0/cpu0"})
	defer excl.Release()
	buf := make([]byte, 64)
	base, err := excl.WriteAt(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	shared := mustAlloc(t, m, Spec{Class: props.GlobalState, Size: 4096, Owner: "t1", Compute: "node0/cpu0"})
	defer shared.Release()
	h2, err := shared.Share("t2", "node0/cpu1")
	if err != nil {
		t.Fatal(err)
	}
	// Ping-pong the same line between the two owners: every write must
	// invalidate the other side, costing more than the exclusive case.
	shared.WriteAt(0, 0, buf)
	end1, err := h2.WriteAt(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	end2, err := shared.WriteAt(end1, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	pingPong := end2 - end1
	if pingPong <= base {
		t.Errorf("contended shared write (%v) must cost more than exclusive (%v)", pingPong, base)
	}
	if m.reg.Counter(telemetry.LayerCoherence, "invalidations") == 0 {
		t.Error("ping-pong must record invalidations")
	}
}

// TestZeroLengthSharedAccessRunsNoProtocol: an access of no bytes touches no
// cache line wherever it points, so on a shared coherent region it costs
// what it costs on an exclusive one and the directory never hears of it.
func TestZeroLengthSharedAccessRunsNoProtocol(t *testing.T) {
	m := newManager(t)
	spec := Spec{Class: props.GlobalState, Size: 4096, Owner: "t1", Compute: "node0/cpu0"}
	spec.Clock = m.topo.NewTaskView()
	excl := mustAlloc(t, m, spec)
	defer excl.Release()
	spec.Clock = m.topo.NewTaskView()
	shared := mustAlloc(t, m, spec)
	defer shared.Release()
	if _, err := shared.Share("t2", "node0/cpu1"); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 1, 63, 64, 65} {
		for name, ops := range map[string][2]func(time.Duration, int64, []byte) (time.Duration, error){
			"read": {excl.ReadAt, shared.ReadAt}, "write": {excl.WriteAt, shared.WriteAt},
		} {
			want, err := ops[0](0, off, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := ops[1](0, off, nil); err != nil || got != want {
				t.Errorf("0-byte %s at %d of a shared region: done %v (%v), of an exclusive one %v", name, off, got, err, want)
			}
		}
	}
	if got := m.Directory().Stats(); got != (coherence.Actions{}) {
		t.Errorf("0-byte accesses ran the protocol: %+v", got)
	}
}

func TestSyncAccessToFarMemoryRejected(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req: props.Requirements{Latency: props.LatencyHigh, Sync: props.Forbid, ByteAddr: props.Require},
	})
	defer h.Release()
	dev, _ := h.DeviceID()
	if dev != "memnode0/far0" && dev != "memnode1/far0" {
		t.Fatalf("async-only request landed on %s, want far memory", dev)
	}
	buf := make([]byte, 64)
	if _, err := h.ReadAt(0, 0, buf); !errors.Is(err, ErrSyncFarAccess) {
		t.Errorf("sync read of far memory err = %v, want ErrSyncFarAccess", err)
	}
	// The async interface works.
	fut := h.ReadAsync(0, 0, buf)
	if _, err := fut.Await(0); err != nil {
		t.Errorf("async read failed: %v", err)
	}
}

func TestAsyncOverlapsComputation(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 1 << 20, Owner: "t", Compute: "node0/cpu0",
		Req: props.Requirements{Latency: props.LatencyHigh, Sync: props.Forbid, ByteAddr: props.Require},
	})
	defer h.Release()
	buf := make([]byte, 4096)
	fut := h.ReadAsync(0, 0, buf)
	// Simulate 1ms of computation before awaiting: completion is absorbed.
	now, err := fut.Await(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if now != 1_000_000 {
		t.Errorf("await after compute = %v, want computation to hide the fetch", now)
	}
	// Awaiting immediately pays the fetch.
	fut2 := h.ReadAsync(0, 0, buf)
	now2, err := fut2.Await(0)
	if err != nil {
		t.Fatal(err)
	}
	if now2 <= 0 {
		t.Error("immediate await must pay the fetch latency")
	}
}

func TestConfidentialRemoteRegionsAreSealed(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req: props.Requirements{
			Latency: props.LatencyHigh, Sync: props.Forbid,
			ByteAddr: props.Require, Confidential: true,
		},
	})
	defer h.Release()
	sealed, err := h.Sealed()
	if err != nil {
		t.Fatal(err)
	}
	if !sealed {
		t.Fatal("confidential region on far memory must be sealed")
	}
	secret := []byte("patient record #42")
	if f := h.WriteAsync(0, 0, secret); f.err != nil {
		t.Fatal(f.err)
	}
	// The raw backing must not contain the plaintext.
	h.r.mu.Lock()
	raw := append([]byte(nil), h.r.data[:len(secret)]...)
	h.r.mu.Unlock()
	if bytes.Equal(raw, secret) {
		t.Error("sealed backing stores plaintext")
	}
	got := make([]byte, len(secret))
	if f := h.ReadAsync(0, 0, got); f.err != nil {
		t.Fatal(f.err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("sealed read = %q, want %q", got, secret)
	}
}

func TestConfidentialLocalRegionsAreNotSealed(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{
		Class: props.PrivateScratch, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req: props.Requirements{Confidential: true},
	})
	defer h.Release()
	if sealed, _ := h.Sealed(); sealed {
		t.Error("on-node confidential regions need no sealing")
	}
}

func TestSealRandomOffsets(t *testing.T) {
	// CTR sealing must round-trip at arbitrary unaligned offsets.
	var secret [32]byte
	copy(secret[:], "test-secret")
	backing := make([]byte, 1024)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		off := int64(rng.Intn(900))
		n := 1 + rng.Intn(100)
		src := make([]byte, n)
		rng.Read(src)
		sealRange(secret, ID(3), backing, off, src)
		dst := make([]byte, n)
		unsealRange(secret, ID(3), backing, off, dst)
		if !bytes.Equal(dst, src) {
			t.Fatalf("trial %d: seal/unseal mismatch at off=%d n=%d", trial, off, n)
		}
	}
}

func TestDeviceBytesAccounting(t *testing.T) {
	m := newManager(t)
	h1 := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 1000, Owner: "a", Compute: "node0/cpu0"})
	h2 := mustAlloc(t, m, Spec{Class: props.PrivateScratch, Size: 5000, Owner: "b", Compute: "node0/cpu0"})
	total := int64(0)
	for _, b := range m.DeviceBytes() {
		total += b
	}
	if total != 1024+8192 {
		t.Errorf("device bytes = %d, want rounded 9216", total)
	}
	h1.Release()
	h2.Release()
	for dev, b := range m.DeviceBytes() {
		if b != 0 {
			t.Errorf("%s still accounts %d bytes", dev, b)
		}
	}
}

func TestFirstFitName(t *testing.T) {
	if (FirstFit{}).Name() != "first-fit" {
		t.Error("baseline name wrong")
	}
}

// Property: random chains of transfer between CPUs preserve data and always
// invalidate the previous handle; releasing the final handle frees the
// region.
func TestTransferChainProperty(t *testing.T) {
	m := newManager(t)
	computes := []string{"node0/cpu0", "node0/cpu1"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, 256)
		rng.Read(payload)
		h, err := m.Alloc(Spec{Class: props.Transfer, Size: 256, Owner: "t0", Compute: computes[0]})
		if err != nil {
			return false
		}
		if _, err := h.WriteAt(0, 0, payload); err != nil {
			return false
		}
		hops := 1 + rng.Intn(6)
		for i := 0; i < hops; i++ {
			nh, _, err := h.Transfer(0, Owner(fmt.Sprintf("t%d", i+1)), computes[rng.Intn(len(computes))])
			if err != nil {
				return false
			}
			// Old handle is dead.
			if _, err := h.ReadAt(0, 0, make([]byte, 1)); !errors.Is(err, ErrStaleHandle) {
				return false
			}
			h = nh
		}
		got := make([]byte, 256)
		if _, err := h.ReadAt(0, 0, got); err != nil {
			return false
		}
		if !bytes.Equal(got, payload) {
			return false
		}
		if err := h.Release(); err != nil {
			return false
		}
		return m.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: alloc/release interleavings never leak regions or corrupt
// device capacity accounting.
func TestAllocReleaseLeakProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := newManager(t)
		rng := rand.New(rand.NewSource(seed))
		var live []*Handle
		for i := 0; i < 80; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := live[k].Release(); err != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			class := []props.RegionClass{props.PrivateScratch, props.GlobalState, props.GlobalScratch, props.Transfer}[rng.Intn(4)]
			h, err := m.Alloc(Spec{Class: class, Size: int64(64 + rng.Intn(1<<16)), Owner: Owner(fmt.Sprintf("t%d", i)), Compute: "node0/cpu0"})
			if err != nil {
				return false
			}
			live = append(live, h)
		}
		for _, h := range live {
			if err := h.Release(); err != nil {
				return false
			}
		}
		if m.Live() != 0 {
			return false
		}
		for _, b := range m.DeviceBytes() {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocRelease(b *testing.B) {
	m := newManager(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := m.Alloc(Spec{Class: props.PrivateScratch, Size: 4096, Owner: "t", Compute: "node0/cpu0"})
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncRead4K(b *testing.B) {
	m := newManager(b)
	h, err := m.Alloc(Spec{Class: props.PrivateScratch, Size: 1 << 20, Owner: "t", Compute: "node0/cpu0"})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadAt(0, int64(i%256)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransferZeroCopy(b *testing.B) {
	m := newManager(b)
	h, err := m.Alloc(Spec{Class: props.Transfer, Size: 1 << 20, Owner: "t0", Compute: "node0/cpu0"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nh, _, err := h.Transfer(0, Owner(fmt.Sprintf("t%d", i+1)), "node0/cpu0")
		if err != nil {
			b.Fatal(err)
		}
		h = nh
	}
}
