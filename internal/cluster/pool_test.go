package cluster

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeBackup is an in-memory durable store.
type fakeBackup struct {
	mu   sync.Mutex
	data map[uint64][]byte
	next uint64
}

func newFakeBackup() *fakeBackup { return &fakeBackup{data: make(map[uint64][]byte)} }

func (b *fakeBackup) Put(data []byte) (uint64, time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next++
	b.data[b.next] = append([]byte(nil), data...)
	return b.next, time.Microsecond, nil
}

func (b *fakeBackup) Get(id uint64) ([]byte, time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.data[id]
	if !ok {
		return nil, 0, errors.New("fakeBackup: missing")
	}
	return append([]byte(nil), d...), time.Microsecond, nil
}

func (b *fakeBackup) Delete(id uint64) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.data, id)
	return time.Microsecond, nil
}

func (b *fakeBackup) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data)
}

func poolFixture(t *testing.T, hosts []string, capacity int64, mark float64, bk Backup) (*Fabric, *RegionPool) {
	t.Helper()
	f := NewFabric(Config{})
	for _, h := range hosts {
		if err := f.AddNode(h, capacity); err != nil {
			t.Fatal(err)
		}
	}
	spill := func(int64) []string { return hosts }
	return f, NewRegionPool(f, "shard0", spill, mark, bk, telemetry.NewRegistry())
}

func TestRegionPoolRoundtrip(t *testing.T) {
	f, p := poolFixture(t, []string{"pool0"}, 1<<20, 0.9, nil)
	payload := bytes.Repeat([]byte{0xee}, 4096)

	tok, cost, err := p.Export(7, payload)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("export verbs must cost virtual time")
	}
	// Ownership is in the fabric control plane.
	if got := f.LeasesOf("shard0"); len(got) != 1 || got[0].Node != "pool0" {
		t.Errorf("LeasesOf = %v, want one slab on pool0", got)
	}
	// The NIC-side counters saw the payload.
	if ns := f.StatsByNode()["pool0"]; ns.Bytes < uint64(len(payload)) {
		t.Errorf("NodeStats.Bytes = %d, want >= %d", ns.Bytes, len(payload))
	}

	buf := make([]byte, len(payload))
	if _, err := p.Fetch(tok, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Error("fetched payload differs")
	}

	if err := p.Drop(tok); err != nil {
		t.Fatal(err)
	}
	if used, _, _ := f.NodeUsage("pool0"); used != 0 {
		t.Errorf("node still holds %d bytes after drop", used)
	}
	if err := p.Drop("never-issued"); err != nil {
		t.Error("unknown tokens must be tolerated:", err)
	}

	st := p.Stats()
	if st.Exported != 1 || st.Recalled != 1 || st.BytesOut != 4096 || st.BytesBack != 4096 || st.Live != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRegionPoolWatermarkAndSpillOrder(t *testing.T) {
	// small can hold one 4KiB payload below a 0.5 watermark; big takes the
	// overflow.
	f := NewFabric(Config{})
	if err := f.AddNode("small", 16<<10); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNode("big", 1<<20); err != nil {
		t.Fatal(err)
	}
	p := NewRegionPool(f, "shard0", func(int64) []string { return []string{"small", "big"} }, 0.5, nil, nil)

	payload := make([]byte, 4096)
	if _, _, err := p.Export(1, payload); err != nil {
		t.Fatal(err)
	}
	// small is now at 4/16 KiB; another 4 KiB would hit 0.5 exactly — still
	// allowed; a third must spill to big.
	if _, _, err := p.Export(2, payload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Export(3, payload); err != nil {
		t.Fatal(err)
	}
	if used, _, _ := f.NodeUsage("small"); used != 8192 {
		t.Errorf("small used = %d, want 8192 (watermark must cap it)", used)
	}
	if used, _, _ := f.NodeUsage("big"); used != 4096 {
		t.Errorf("big used = %d, want 4096 (spill target)", used)
	}

	// No candidate below watermark → ErrNoSpillTarget, region stays home.
	pFull := NewRegionPool(f, "shard1", func(int64) []string { return []string{"small"} }, 0.5, nil, nil)
	if _, _, err := pFull.Export(4, payload); !errors.Is(err, ErrNoSpillTarget) {
		t.Errorf("export over watermark = %v, want ErrNoSpillTarget", err)
	}
}

func TestRegionPoolFetchFallsBackToBackupOnHostCrash(t *testing.T) {
	bk := newFakeBackup()
	f, p := poolFixture(t, []string{"pool0"}, 1<<20, 0.9, bk)
	payload := []byte("survives the host")

	tok, _, err := p.Export(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if bk.len() != 1 {
		t.Fatalf("backup holds %d entries after export, want 1", bk.len())
	}
	if err := f.Crash("pool0"); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, len(payload))
	if _, err := p.Fetch(tok, buf); err != nil {
		t.Fatal("fetch after host crash must fall back to backup:", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Error("backup payload differs")
	}
	if st := p.Stats(); st.HostLost != 1 {
		t.Errorf("HostLost = %d, want 1", st.HostLost)
	}
	// Without a backup the loss is surfaced.
	f2, p2 := poolFixture(t, []string{"pool0"}, 1<<20, 0.9, nil)
	tok2, _, err := p2.Export(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	f2.Crash("pool0") //nolint:errcheck // node exists
	if _, err := p2.Fetch(tok2, buf); !errors.Is(err, ErrUnreachable) {
		t.Errorf("fetch with no backup = %v, want ErrUnreachable", err)
	}
}

func TestRegionPoolAbandonAdoptsLeases(t *testing.T) {
	bk := newFakeBackup()
	f, p := poolFixture(t, []string{"pool0"}, 1<<20, 0.9, bk)
	for i := uint64(0); i < 3; i++ {
		if _, _, err := p.Export(i, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(f.LeasesOf("shard0")); got != 3 {
		t.Fatalf("LeasesOf = %d, want 3", got)
	}

	// shard0 dies; a survivor adopts its holdings and reclaims the memory.
	if n := p.Abandon("shard1"); n != 3 {
		t.Fatalf("Abandon adopted %d slabs, want 3", n)
	}
	if got := len(f.LeasesOf("shard0")); got != 0 {
		t.Errorf("dead owner still holds %d leases", got)
	}
	if used, _, _ := f.NodeUsage("pool0"); used != 0 {
		t.Errorf("pool node still holds %d bytes after adoption", used)
	}
	if bk.len() != 0 {
		t.Errorf("backup still holds %d entries after adoption", bk.len())
	}
	if st := p.Stats(); st.Live != 0 {
		t.Errorf("Live = %d after abandon, want 0", st.Live)
	}
}
