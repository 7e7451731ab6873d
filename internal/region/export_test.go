package region

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/props"
)

// Exported reports whether a region currently lives in the remote pool
// (tests, stats). The region stays addressable either way: the next access
// recalls it transparently.
func (m *Manager) Exported(id ID) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.find(id)
	if r == nil || r.freed {
		return false, fmt.Errorf("%w: region %d", ErrFreed, id)
	}
	return r.exported, nil
}

// find returns the live region id, nil when there is none. Caller holds m.mu.
func (m *Manager) find(id ID) *Region {
	for _, r := range m.regions {
		if r.id == id {
			return r
		}
	}
	return nil
}

// fakeExporter is an in-memory remote pool: a map of token → payload copy,
// with fixed per-verb virtual costs so tests can assert cost accounting.
type fakeExporter struct {
	mu      sync.Mutex
	store   map[string][]byte
	seq     int
	exports int
	fetches int
	drops   int

	failExport bool
	failFetch  bool
}

const fakeVerbCost = 1500 * time.Nanosecond

func newFakeExporter() *fakeExporter {
	return &fakeExporter{store: make(map[string][]byte)}
}

func (f *fakeExporter) Export(id uint64, data []byte) (string, time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failExport {
		return "", 0, fmt.Errorf("fake: export refused")
	}
	f.seq++
	f.exports++
	tok := fmt.Sprintf("slab-%d-%d", id, f.seq)
	f.store[tok] = append([]byte(nil), data...)
	return tok, fakeVerbCost, nil
}

func (f *fakeExporter) Fetch(token string, buf []byte) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failFetch {
		return 0, fmt.Errorf("fake: fetch refused")
	}
	data, ok := f.store[token]
	if !ok {
		return 0, fmt.Errorf("fake: unknown token %q", token)
	}
	f.fetches++
	copy(buf, data)
	return fakeVerbCost, nil
}

func (f *fakeExporter) Drop(token string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drops++
	delete(f.store, token)
	return nil
}

func (f *fakeExporter) live() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.store)
}

// evictAll runs a sweep tuned so every cold region on every device is
// exported (watermark epsilon above zero utilization).
func evictAll(t *testing.T, m *Manager) RebalanceStats {
	t.Helper()
	stats, err := rebalance(m, 0, RebalancePolicy{EvictWatermark: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestExportRecallRoundtrip(t *testing.T) {
	m := newManager(t)
	fe := newFakeExporter()
	m.SetExporter(fe)

	h := mustAlloc(t, m, Spec{
		Name: "cold-archive", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer h.Release()
	payload := []byte("regions survive a remote round trip byte-for-byte")
	if f := h.WriteAsync(0, 0, payload); f.err != nil {
		t.Fatal(f.err)
	}
	homeDev, _ := h.DeviceID()

	stats := evictAll(t, m)
	if stats.Exported != 1 || stats.BytesExported != 4096 {
		t.Fatalf("eviction sweep: %+v, want 1 region / 4096 bytes exported", stats)
	}
	if stats.Cost < fakeVerbCost {
		t.Errorf("export verb cost %v must land on the sweep's clock", stats.Cost)
	}
	if exp, err := m.Exported(h.ID()); err != nil || !exp {
		t.Fatalf("Exported() = %v, %v; want true", exp, err)
	}
	if fe.live() != 1 {
		t.Fatalf("remote pool holds %d payloads, want 1", fe.live())
	}
	// The exported region's bytes left the node...
	if got := m.DeviceBytes()[homeDev]; got != 0 {
		t.Errorf("DeviceBytes[%s] = %d after export, want 0", homeDev, got)
	}
	// ...but its pricing identity did not move.
	if dev, err := h.DeviceID(); err != nil || dev != homeDev {
		t.Errorf("DeviceID() = %q, %v while exported, want home %q", dev, err, homeDev)
	}

	// First access fetches-on-read, transparently.
	got := make([]byte, len(payload))
	if f := h.ReadAsync(0, 0, got); f.err != nil {
		t.Fatal(f.err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("recalled read = %q, want %q", got, payload)
	}
	if exp, _ := m.Exported(h.ID()); exp {
		t.Error("region must be resident again after the recall")
	}
	if fe.live() != 0 {
		t.Errorf("remote copy must be dropped after recall; %d live", fe.live())
	}
	if dev, _ := h.DeviceID(); dev != homeDev {
		t.Errorf("recall landed on %q, want home device %q", dev, homeDev)
	}
}

// TestExportKeepsVirtualPricingIdentical pins the determinism contract: the
// virtual completion time of an access is the same whether or not the region
// took a remote round trip in between.
func TestExportKeepsVirtualPricingIdentical(t *testing.T) {
	spec := Spec{
		Name: "probe", Class: props.Custom, Size: 8192, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	}
	payload := bytes.Repeat([]byte{0xa5}, 1024)

	run := func(export bool) time.Duration {
		m := newManager(t)
		m.SetExporter(newFakeExporter())
		h := mustAlloc(t, m, spec)
		defer h.Release()
		if f := h.WriteAsync(0, 0, payload); f.err != nil {
			t.Fatal(f.err)
		}
		if export {
			if s := evictAll(t, m); s.Exported != 1 {
				t.Fatalf("expected an export, got %+v", s)
			}
		} else {
			// Run the identical sweep minus eviction so heat decay matches.
			if _, err := rebalance(m, 0, RebalancePolicy{}); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, len(payload))
		f := h.ReadAsync(0, 0, buf)
		done, err := f.Await(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatal("payload mismatch")
		}
		return done
	}

	solo, migrated := run(false), run(true)
	if solo != migrated {
		t.Errorf("virtual read time diverged: resident %v vs recalled %v", solo, migrated)
	}
}

func TestSealedRegionExportsCiphertext(t *testing.T) {
	m := newManager(t)
	fe := newFakeExporter()
	m.SetExporter(fe)

	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req: props.Requirements{
			Latency: props.LatencyHigh, Sync: props.Forbid,
			ByteAddr: props.Require, Confidential: true,
		},
	})
	defer h.Release()
	if sealed, _ := h.Sealed(); !sealed {
		t.Skip("confidential region not sealed on this topology")
	}
	secret := []byte("patient record #42")
	if f := h.WriteAsync(0, 0, secret); f.err != nil {
		t.Fatal(f.err)
	}

	if s := evictAll(t, m); s.Exported != 1 {
		t.Fatalf("expected sealed region to export, got %+v", s)
	}
	// The remote pool must only ever see ciphertext.
	fe.mu.Lock()
	for tok, data := range fe.store {
		if bytes.Contains(data, secret) {
			t.Errorf("remote copy %s holds plaintext", tok)
		}
	}
	fe.mu.Unlock()

	got := make([]byte, len(secret))
	if f := h.ReadAsync(0, 0, got); f.err != nil {
		t.Fatal(f.err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("recalled sealed read = %q, want %q", got, secret)
	}
}

func TestFreeDropsRemoteCopy(t *testing.T) {
	m := newManager(t)
	fe := newFakeExporter()
	m.SetExporter(fe)

	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	if f := h.WriteAsync(0, 0, []byte("doomed")); f.err != nil {
		t.Fatal(f.err)
	}
	if s := evictAll(t, m); s.Exported != 1 {
		t.Fatalf("expected an export, got %+v", s)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if fe.live() != 0 {
		t.Errorf("freeing an exported region must drop the remote copy; %d live", fe.live())
	}
	if m.Live() != 0 {
		t.Errorf("Live() = %d after release, want 0", m.Live())
	}
}

func TestSweepRecallsHotExportedRegion(t *testing.T) {
	m := newManager(t)
	fe := newFakeExporter()
	m.SetExporter(fe)

	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer h.Release()
	if f := h.WriteAsync(0, 0, []byte("warming up")); f.err != nil {
		t.Fatal(f.err)
	}
	if s := evictAll(t, m); s.Exported != 1 {
		t.Fatalf("expected an export, got %+v", s)
	}
	// Mark the region hot without touching it (an access would recall it on
	// the spot); the next sweep must bring it home instead.
	h.r.mu.Lock()
	h.r.heat = 64
	h.r.mu.Unlock()
	stats, err := rebalance(m, 0, RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recalled != 1 || stats.BytesRecalled != 4096 {
		t.Fatalf("sweep stats %+v, want 1 recall / 4096 bytes", stats)
	}
	if stats.Cost < fakeVerbCost {
		t.Errorf("recall verb cost %v must land on the sweep's clock", stats.Cost)
	}
	if exp, _ := m.Exported(h.ID()); exp {
		t.Error("hot region must be resident after the sweep")
	}
}

// TestMakeRoomEvictsColdestFirst exercises the demand-paging path: when a
// recall cannot fit, the coldest co-resident regions are exported until the
// device can take the payload back — and no more than that.
func TestMakeRoomEvictsColdestFirst(t *testing.T) {
	m := newManager(t)
	fe := newFakeExporter()
	m.SetExporter(fe)

	cold := mustAlloc(t, m, Spec{
		Name: "cold", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer cold.Release()
	warm := mustAlloc(t, m, Spec{
		Name: "warm", Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer warm.Release()

	m.mu.Lock()
	warm.r.heat = 8
	dev := cold.r.device
	// A need larger than current free space by exactly one block: exporting
	// the single coldest resident must satisfy it.
	need := &Region{id: 1 << 30, device: dev, blockSize: dev.Free() + cold.r.blockSize}
	err := m.makeRoomLocked(need)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if exp, _ := m.Exported(cold.ID()); !exp {
		t.Error("makeRoom must export the coldest resident")
	}
	if exp, _ := m.Exported(warm.ID()); exp {
		t.Error("makeRoom exported more than needed: warm region left too")
	}

	// An impossible need reports failure after best effort.
	m.mu.Lock()
	need = &Region{id: 1 << 30, device: dev, blockSize: dev.Free() + dev.Capacity}
	err = m.makeRoomLocked(need)
	m.mu.Unlock()
	if err == nil {
		t.Error("makeRoom must fail when the device can never fit the need")
	}
}

// TestExportRecallConcurrentWithReads ping-pongs a region between resident
// and exported while readers hammer it; run under -race this pins the lock
// ordering between the sweep and the access path.
func TestExportRecallConcurrentWithReads(t *testing.T) {
	m := newManager(t)
	m.SetExporter(newFakeExporter())

	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer h.Release()
	payload := bytes.Repeat([]byte{0x5a}, 512)
	if f := h.WriteAsync(0, 0, payload); f.err != nil {
		t.Fatal(f.err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := rebalance(m, 0, RebalancePolicy{EvictWatermark: 1e-12}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, len(payload))
		for i := 0; i < 200; i++ {
			if f := h.ReadAsync(0, 0, buf); f.err != nil {
				t.Error(f.err)
				return
			}
			if !bytes.Equal(buf, payload) {
				t.Errorf("iteration %d: payload corrupted", i)
				return
			}
		}
	}()
	wg.Wait()
}

func TestEvictionWithoutExporterIsNoop(t *testing.T) {
	m := newManager(t)
	h := mustAlloc(t, m, Spec{
		Class: props.Custom, Size: 4096, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	})
	defer h.Release()
	stats, err := rebalance(m, 0, RebalancePolicy{EvictWatermark: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exported != 0 {
		t.Fatalf("sweep without an exporter exported %d regions", stats.Exported)
	}
}
