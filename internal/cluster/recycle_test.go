package cluster

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for what recycling freed slab backings could break: the zero-fill a
// new slab promises, exact usage accounting, crash semantics, and the bound
// on what a node keeps.

// dirtySlab allocates a slab of size bytes, fills it with 0xAB and frees it,
// leaving a dirty backing of its class on the node's free list.
func dirtySlab(t *testing.T, f *Fabric, node string, size int64) {
	t.Helper()
	id, _, err := f.AllocSlab(node, size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(id, 0, bytes.Repeat([]byte{0xAB}, int(size))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FreeSlab(id); err != nil {
		t.Fatal(err)
	}
}

func TestRecycledSlabReadsZeroAtLargerSize(t *testing.T) {
	f := newTestFabric(t, 1)
	dirtySlab(t, f, "mem0", 2100) // class 4096
	if held := f.nodes["mem0"].free.Held(); held != 4096 {
		t.Fatalf("free list holds %d bytes after one free, want 4096", held)
	}
	// Larger than the first tenant's slab, same class: the tail past byte
	// 2100 was never written by anyone, the head was.
	id, _, err := f.AllocSlab("mem0", 4000)
	if err != nil {
		t.Fatal(err)
	}
	if held := f.nodes["mem0"].free.Held(); held != 0 {
		t.Fatalf("free list holds %d bytes, want 0: the backing was not reused", held)
	}
	got := make([]byte, 4000)
	if _, err := f.Read(id, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4000)) {
		t.Error("a recycled slab shows its previous tenant's bytes")
	}
	if _, err := f.Read(id, 0, make([]byte, 4001)); err == nil {
		t.Error("a recycled slab is readable past its size")
	}
}

// TestCASFromZeroOnRecycledSlab checks the zero-fill at the size the last
// tenant wrote in full: a caller that claims a fresh slab's word by moving it
// from zero must find zero there, recycled backing or not.
func TestCASFromZeroOnRecycledSlab(t *testing.T) {
	f := newTestFabric(t, 1)
	got := make([]byte, 64)
	dirtySlab(t, f, "mem0", 64)
	small, _, err := f.AllocSlab("mem0", 64)
	if err != nil {
		t.Fatal(err)
	}
	if held := f.nodes["mem0"].free.Held(); held != 0 {
		t.Fatalf("free list holds %d bytes, want 0: the backing was not reused", held)
	}
	if _, err := f.Read(small, 0, got); err != nil || !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("a recycled 64 B slab reads %v, %v; want zeros", got, err)
	}
}

func TestNodeUsageExactThroughChurn(t *testing.T) {
	f := newTestFabric(t, 2)
	rng := rand.New(rand.NewSource(1))
	type live struct {
		id   SlabID
		size int64
	}
	var slabs []live
	want := map[string]int64{}
	check := func(step int) {
		t.Helper()
		for node, w := range want {
			if used, _, _ := f.NodeUsage(node); used != w {
				t.Fatalf("step %d: %s used = %d, want %d", step, node, used, w)
			}
		}
	}
	for step := 0; step < 4000; step++ {
		if len(slabs) > 0 && (rng.Intn(2) == 0 || len(slabs) > 40) {
			k := rng.Intn(len(slabs))
			if _, err := f.FreeSlab(slabs[k].id); err != nil {
				t.Fatal(err)
			}
			want[slabs[k].id.Node] -= slabs[k].size
			slabs = append(slabs[:k], slabs[k+1:]...)
		} else {
			node, size := nodeName(rng.Intn(2)), int64(1+rng.Intn(9000))
			id, _, err := f.AllocSlab(node, size)
			if err != nil {
				t.Fatal(err)
			}
			want[node] += size
			slabs = append(slabs, live{id, size})
		}
		check(step)
	}
	for _, s := range slabs {
		if _, err := f.FreeSlab(s.id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if used, _, _ := f.NodeUsage(nodeName(i)); used != 0 {
			t.Errorf("%s used = %d after freeing everything, want 0", nodeName(i), used)
		}
	}
	// Recycled bytes are not capacity: a node whose free list is full still
	// has all of its capacity to give.
	if _, _, err := f.AllocSlab("mem0", 1<<20); err != nil {
		t.Errorf("full-capacity slab after churn: %v", err)
	}
}

func TestCrashDropsRecycledBackingsPartitionKeepsSlabs(t *testing.T) {
	f := newTestFabric(t, 1)
	dirtySlab(t, f, "mem0", 4096)
	keep, _, err := f.AllocSlab("mem0", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(keep, 0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := f.Partition("mem0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Heal("mem0"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := f.Read(keep, 0, got); err != nil || string(got) != "kept" {
		t.Errorf("slab after partition and heal = %q, %v", got, err)
	}
	if held := f.nodes["mem0"].free.Held(); held != 4096 {
		t.Errorf("partition and heal changed the free list: %d bytes, want 4096", held)
	}
	if err := f.Crash("mem0"); err != nil {
		t.Fatal(err)
	}
	if held := f.nodes["mem0"].free.Held(); held != 0 {
		t.Errorf("a crashed node keeps %d recycled bytes, want 0", held)
	}
	if err := f.Restart("mem0"); err != nil {
		t.Fatal(err)
	}
	if used, _, _ := f.NodeUsage("mem0"); used != 0 {
		t.Errorf("restarted node used = %d, want 0", used)
	}
}

func TestFreeListBoundHoldsAfterBurst(t *testing.T) {
	f := NewFabric(Config{})
	if err := f.AddNode("big", 1<<30); err != nil {
		t.Fatal(err)
	}
	const n = 10000
	ids := make([]SlabID, n)
	for i := range ids {
		var err error
		if ids[i], _, err = f.AllocSlab("big", int64(1+(i*37)%(48<<10))); err != nil {
			t.Fatal(err)
		}
	}
	peak := int64(0)
	for _, id := range ids {
		if _, err := f.FreeSlab(id); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, f.nodes["big"].free.Held())
	}
	if peak > slabFreeBytes {
		t.Errorf("free list reached %d bytes, bound is %d", peak, slabFreeBytes)
	}
	if peak < slabFreeBytes/2 {
		t.Errorf("free list peaked at %d bytes of %d: the burst never reached the bound", peak, slabFreeBytes)
	}
	// One slab larger than the whole bound is never kept, and is exact.
	id, _, err := f.AllocSlab("big", slabFreeBytes+1)
	if err != nil {
		t.Fatal(err)
	}
	before := f.nodes["big"].free.Held()
	if _, err := f.FreeSlab(id); err != nil {
		t.Fatal(err)
	}
	if got := f.nodes["big"].free.Held(); got != before {
		t.Errorf("an over-bound slab changed the free list: %d → %d", before, got)
	}
}
