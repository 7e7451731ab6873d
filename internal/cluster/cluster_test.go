package cluster

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func newTestFabric(t *testing.T, nodes int) *Fabric {
	t.Helper()
	f := NewFabric(Config{})
	for i := 0; i < nodes; i++ {
		if err := f.AddNode(nodeName(i), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func nodeName(i int) string { return "mem" + string(rune('0'+i)) }

func TestAddNodeValidation(t *testing.T) {
	f := NewFabric(Config{})
	if err := f.AddNode("", 10); err == nil {
		t.Error("empty name must fail")
	}
	if err := f.AddNode("a", 0); err == nil {
		t.Error("zero capacity must fail")
	}
	if err := f.AddNode("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNode("a", 10); err == nil {
		t.Error("duplicate node must fail")
	}
}

func TestSlabLifecycle(t *testing.T) {
	f := newTestFabric(t, 1)
	id, d, err := f.AllocSlab("mem0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("alloc verb must take virtual time")
	}
	used, capacity, err := f.NodeUsage("mem0")
	if err != nil || used != 4096 || capacity != 1<<20 {
		t.Errorf("usage = %d/%d err=%v", used, capacity, err)
	}
	if _, err := f.FreeSlab(id); err != nil {
		t.Fatal(err)
	}
	used, _, _ = f.NodeUsage("mem0")
	if used != 0 {
		t.Errorf("usage after free = %d", used)
	}
	if _, err := f.FreeSlab(id); err == nil {
		t.Error("double free must fail")
	}
}

func TestAllocCapacity(t *testing.T) {
	f := newTestFabric(t, 1)
	if _, _, err := f.AllocSlab("mem0", 1<<21); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized alloc err = %v, want ErrOutOfMemory", err)
	}
	if _, _, err := f.AllocSlab("mem0", 0); !errors.Is(err, ErrInvalidInput) {
		t.Error("zero alloc must be invalid")
	}
	if _, _, err := f.AllocSlab("nope", 64); !errors.Is(err, ErrUnknownNode) {
		t.Error("unknown node must fail")
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	f := newTestFabric(t, 1)
	id, _, _ := f.AllocSlab("mem0", 1024)
	payload := []byte("the quick brown fox")
	if _, err := f.Write(id, 100, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.Read(id, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read back %q, want %q", got, payload)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	f := newTestFabric(t, 1)
	id, _, _ := f.AllocSlab("mem0", 64)
	buf := make([]byte, 65)
	if _, err := f.Read(id, 0, buf); !errors.Is(err, ErrOutOfRange) {
		t.Error("oversized read must fail")
	}
	if _, err := f.Write(id, -1, buf[:1]); !errors.Is(err, ErrOutOfRange) {
		t.Error("negative offset must fail")
	}
	if _, err := f.Read(SlabID{Node: "mem0", Slab: 999}, 0, buf[:1]); !errors.Is(err, ErrBadSlab) {
		t.Error("unknown slab must fail")
	}
}

func TestVerbTimeScalesWithPayload(t *testing.T) {
	f := newTestFabric(t, 1)
	id, _, _ := f.AllocSlab("mem0", 1<<20)
	small := make([]byte, 64)
	big := make([]byte, 1<<19)
	dSmall, err := f.Read(id, 0, small)
	if err != nil {
		t.Fatal(err)
	}
	dBig, err := f.Read(id, 0, big)
	if err != nil {
		t.Fatal(err)
	}
	if dBig <= dSmall {
		t.Errorf("large verb (%v) must cost more than small (%v)", dBig, dSmall)
	}
	if dSmall < 3*time.Microsecond {
		t.Errorf("every verb pays at least the RTT, got %v", dSmall)
	}
}

func TestCrashLosesDataAndRestartIsEmpty(t *testing.T) {
	f := newTestFabric(t, 1)
	id, _, _ := f.AllocSlab("mem0", 64)
	if _, err := f.Write(id, 0, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("mem0"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(id, 0, make([]byte, 8)); !errors.Is(err, ErrUnreachable) {
		t.Errorf("read from crashed node err = %v, want ErrUnreachable", err)
	}
	if err := f.Restart("mem0"); err != nil {
		t.Fatal(err)
	}
	// Volatile contents are gone: the slab no longer exists.
	if _, err := f.Read(id, 0, make([]byte, 8)); !errors.Is(err, ErrBadSlab) {
		t.Errorf("read after restart err = %v, want ErrBadSlab", err)
	}
	used, _, _ := f.NodeUsage("mem0")
	if used != 0 {
		t.Error("restarted node must be empty")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	f := newTestFabric(t, 2)
	id, _, _ := f.AllocSlab("mem1", 64)
	if _, err := f.Write(id, 0, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := f.Partition("mem1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(id, 0, make([]byte, 8)); !errors.Is(err, ErrUnreachable) {
		t.Error("partitioned node must be unreachable")
	}
	if got := f.AliveNodes(); len(got) != 1 || got[0] != "mem0" {
		t.Errorf("alive = %v, want [mem0]", got)
	}
	if err := f.Heal("mem1"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := f.Read(id, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "survives" {
		t.Error("partition must not lose data")
	}
}

func TestFaultOpsUnknownNode(t *testing.T) {
	f := newTestFabric(t, 1)
	for _, op := range []func(string) error{f.Crash, f.Restart, f.Partition, f.Heal} {
		if err := op("ghost"); !errors.Is(err, ErrUnknownNode) {
			t.Error("fault ops on unknown nodes must fail")
		}
	}
}

func TestNodesListing(t *testing.T) {
	f := newTestFabric(t, 3)
	if got := f.Nodes(); len(got) != 3 || got[0] != "mem0" {
		t.Errorf("Nodes() = %v", got)
	}
	f.Crash("mem1")
	if got := f.AliveNodes(); len(got) != 2 {
		t.Errorf("alive = %v", got)
	}
	if got := f.Nodes(); len(got) != 3 {
		t.Error("Nodes() lists crashed nodes too")
	}
}

// TestNodeListsStaySortedAndCurrent: names are kept sorted as nodes join in
// any order, and the shared alive list is rebuilt after every change of
// reachability — a list handed out before the change is not edited in place.
func TestNodeListsStaySortedAndCurrent(t *testing.T) {
	f := NewFabric(Config{})
	for _, name := range []string{"m2", "m0", "m3", "m1"} {
		if err := f.AddNode(name, 1<<10); err != nil {
			t.Fatal(err)
		}
	}
	all := []string{"m0", "m1", "m2", "m3"}
	if got := f.Nodes(); !slices.Equal(got, all) {
		t.Errorf("Nodes() = %v, want %v", got, all)
	}
	before := f.AliveNodes()
	for _, step := range []struct {
		op   func(string) error
		node string
		want []string
	}{
		{f.Crash, "m1", []string{"m0", "m2", "m3"}},
		{f.Partition, "m3", []string{"m0", "m2"}},
		{f.Restart, "m1", []string{"m0", "m1", "m2"}},
		{f.Heal, "m3", all},
	} {
		if err := step.op(step.node); err != nil {
			t.Fatal(err)
		}
		if got := f.AliveNodes(); !slices.Equal(got, step.want) {
			t.Errorf("alive after %s changed = %v, want %v", step.node, got, step.want)
		}
	}
	if !slices.Equal(before, all) {
		t.Errorf("a list handed out earlier was edited: %v", before)
	}
}

func TestStats(t *testing.T) {
	f := newTestFabric(t, 1)
	id, _, _ := f.AllocSlab("mem0", 1024)
	f.Write(id, 0, make([]byte, 100))
	f.Read(id, 0, make([]byte, 100))
	verbs, moved := f.Stats()
	if verbs != 3 { // alloc + write + read
		t.Errorf("verbs = %d, want 3", verbs)
	}
	if moved != 200 {
		t.Errorf("bytes = %d, want 200", moved)
	}
}

// Property: any write/read sequence round-trips bytes exactly, regardless of
// offset and length, while in range.
func TestReadWriteProperty(t *testing.T) {
	f := NewFabric(Config{})
	if err := f.AddNode("m", 1<<16); err != nil {
		t.Fatal(err)
	}
	id, _, _ := f.AllocSlab("m", 1<<16)
	fn := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off) % (1<<16 - int64(len(data)))
		if o < 0 {
			return true
		}
		if _, err := f.Write(id, o, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := f.Read(id, o, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOneSidedRead(b *testing.B) {
	f := NewFabric(Config{})
	if err := f.AddNode("m", 1<<26); err != nil {
		b.Fatal(err)
	}
	id, _, _ := f.AllocSlab("m", 1<<26)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Read(id, int64(i%1000)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPerNodeStatsAttribution(t *testing.T) {
	f := newTestFabric(t, 2)
	a, _, err := f.AllocSlab(nodeName(0), 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := f.AllocSlab(nodeName(1), 4096)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := f.Write(a, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(a, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b, 0, buf[:40]); err != nil {
		t.Fatal(err)
	}
	byNode := f.StatsByNode()
	s0, s1 := byNode[nodeName(0)], byNode[nodeName(1)]
	if s0.Verbs != 3 || s0.Bytes != 200 { // alloc + write + read
		t.Errorf("node0 stats = %+v, want {Verbs:3 Bytes:200}", s0)
	}
	if s1.Verbs != 2 || s1.Bytes != 40 { // alloc + write
		t.Errorf("node1 stats = %+v, want {Verbs:2 Bytes:40}", s1)
	}
	verbs, bytes := f.Stats()
	var sumV, sumB uint64
	for _, s := range byNode {
		sumV += s.Verbs
		sumB += s.Bytes
	}
	if sumV != verbs || sumB != bytes {
		t.Errorf("per-node totals (%d verbs, %d bytes) != fabric totals (%d, %d)",
			sumV, sumB, verbs, bytes)
	}
	if len(byNode) != 2 {
		t.Errorf("StatsByNode has %d nodes, want 2", len(byNode))
	}
}

func TestSlabLeaseAndHandoff(t *testing.T) {
	f := newTestFabric(t, 1)
	id, _, err := f.AllocSlab(nodeName(0), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.LeasesOf("shard0"); len(got) != 0 {
		t.Fatalf("fresh slab must be unleased, shard0 holds %v", got)
	}
	if _, err := f.Lease(id, "shard0"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lease(id, "shard0"); err != nil {
		t.Fatalf("re-leasing one's own slab must succeed: %v", err)
	}
	if _, err := f.Lease(id, "shard1"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("stealing a lease: err = %v, want ErrLeaseHeld", err)
	}
	if _, err := f.Handoff(id, "shard1", "shard2"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("handoff from non-owner: err = %v, want ErrLeaseHeld", err)
	}
	if d, err := f.Handoff(id, "shard0", "shard1"); err != nil || d <= 0 {
		t.Fatalf("handoff = (%v, %v), want priced success", d, err)
	}
	if got := f.LeasesOf("shard1"); !slices.Equal(got, []SlabID{id}) || len(f.LeasesOf("shard0")) != 0 {
		t.Fatalf("shard1 holds %v, shard0 %v; want the slab moved to shard1", got, f.LeasesOf("shard0"))
	}
	// The ownership registry lives in the fabric: a handoff succeeds while
	// the slab's home node is partitioned (failover adoption).
	if err := f.Partition(nodeName(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Handoff(id, "shard1", "shard2"); err != nil {
		t.Fatalf("handoff with partitioned home node: %v", err)
	}
	if got := f.LeasesOf("shard2"); !slices.Equal(got, []SlabID{id}) {
		t.Fatalf("shard2 holds %v after the partition handoff, want [%v]", got, id)
	}
	if err := f.Heal(nodeName(0)); err != nil {
		t.Fatal(err)
	}
	// A crash destroys the slab, and its lease with it: nobody adopts it.
	if err := f.Crash(nodeName(0)); err != nil {
		t.Fatal(err)
	}
	if got := f.LeasesOf("shard2"); len(got) != 0 {
		t.Fatalf("shard2 still holds %v after the crash destroyed it", got)
	}
	if _, err := f.Handoff(id, "shard2", "shard0"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("handoff of a crashed slab: err = %v, want ErrLeaseHeld", err)
	}
	if err := f.Restart(nodeName(0)); err != nil {
		t.Fatal(err)
	}
	// Freeing a slab clears its lease.
	id2, _, err := f.AllocSlab(nodeName(0), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lease(id2, "shard0"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FreeSlab(id2); err != nil {
		t.Fatal(err)
	}
	if got := f.LeasesOf("shard0"); len(got) != 0 {
		t.Errorf("freed slab must be unleased, shard0 holds %v", got)
	}
}

// TestCrashDropsDestroyedLeases: a crash drops the lease of every slab it
// destroys, and only those; the restarted node cannot free the old slab, so
// a lease kept past the crash would be held forever.
func TestCrashDropsDestroyedLeases(t *testing.T) {
	f := newTestFabric(t, 2)
	var ids []SlabID
	for i := 0; i < 2; i++ {
		id, _, err := f.AllocSlab(nodeName(i), 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Lease(id, "owner"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := f.Crash(nodeName(0)); err != nil {
		t.Fatal(err)
	}
	if got := f.LeasesOf("owner"); !slices.Equal(got, ids[1:]) {
		t.Fatalf("owner leases %v after the crash, want only the survivor's %v", got, ids[1:])
	}
	if err := f.Restart(nodeName(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FreeSlab(ids[0]); !errors.Is(err, ErrBadSlab) {
		t.Fatalf("freeing the destroyed slab: err = %v, want ErrBadSlab", err)
	}
	if got := f.LeasesOf("owner"); !slices.Equal(got, ids[1:]) {
		t.Fatalf("owner leases %v after the restart, want %v", got, ids[1:])
	}
}
