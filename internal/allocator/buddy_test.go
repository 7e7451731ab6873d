package allocator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Used returns bytes currently allocated (after power-of-two rounding).
func (b *Buddy) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// coalesced reports whether the whole arena is one free block.
func (b *Buddy) coalesced() bool { return len(b.free[b.maxOrder]) == 1 }

// CheckInvariants validates internal consistency: no block is both free and
// allocated, free+used accounting matches the arena, and no two live or free
// blocks overlap.
func (b *Buddy) CheckInvariants() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	type span struct {
		off, size int64
		free      bool
	}
	var spans []span
	var freeBytes int64
	for k, set := range b.free {
		for off := range set {
			spans = append(spans, span{off, 1 << k, true})
			freeBytes += 1 << k
		}
	}
	var usedBytes int64
	for off, k := range b.allocated {
		spans = append(spans, span{off, 1 << k, false})
		usedBytes += 1 << k
	}
	if usedBytes != b.used {
		return fmt.Errorf("allocator: used accounting %d != live blocks %d", b.used, usedBytes)
	}
	if freeBytes+usedBytes != b.size {
		return fmt.Errorf("allocator: free %d + used %d != size %d", freeBytes, usedBytes, b.size)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	var pos int64
	for _, s := range spans {
		if s.off != pos {
			return fmt.Errorf("allocator: gap or overlap at offset %d (expected %d)", s.off, pos)
		}
		if s.off%s.size != 0 {
			return fmt.Errorf("allocator: block at %d misaligned for size %d", s.off, s.size)
		}
		pos = s.off + s.size
	}
	if pos != b.size {
		return fmt.Errorf("allocator: spans cover %d of %d", pos, b.size)
	}
	return nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("size 0 must be rejected")
	}
	if _, err := New(100); err == nil {
		t.Error("non-power-of-two must be rejected")
	}
	if _, err := New(32); err == nil {
		t.Error("below minimum block must be rejected")
	}
	if _, err := New(1 << 20); err != nil {
		t.Errorf("1 MiB arena should work: %v", err)
	}
}

func TestBlockSize(t *testing.T) {
	cases := map[int64]int64{1: 64, 64: 64, 65: 128, 100: 128, 128: 128, 4096: 4096, 5000: 8192}
	for in, want := range cases {
		if got := BlockSize(in); got != want {
			t.Errorf("BlockSize(%d) = %d, want %d", in, got, want)
		}
	}
	if BlockSize(0) != 0 || BlockSize(-1) != 0 {
		t.Error("non-positive sizes round to 0")
	}
}

func TestAllocFreeRoundtrip(t *testing.T) {
	b, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	off, err := b.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Used() != 1024 {
		t.Errorf("Used = %d, want rounded 1024", b.Used())
	}
	if err := b.Free(off); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 0 {
		t.Errorf("Used after free = %d, want 0", b.Used())
	}
	if !b.coalesced() {
		t.Error("free space must fully coalesce")
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	b, _ := New(1 << 12)
	if _, err := b.Alloc(0); err == nil {
		t.Error("Alloc(0) must fail")
	}
	if _, err := b.Alloc(-1); err == nil {
		t.Error("Alloc(-1) must fail")
	}
	if _, err := b.Alloc(1 << 13); err == nil {
		t.Error("oversized request must fail")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	b, _ := New(1 << 12)
	off, _ := b.Alloc(64)
	if err := b.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off); err == nil {
		t.Error("double free must be detected")
	}
	if err := b.Free(12345); err == nil {
		t.Error("free of never-allocated offset must fail")
	}
}

func TestExhaustion(t *testing.T) {
	b, _ := New(1 << 12) // 4 KiB
	var offs []int64
	for i := 0; i < 64; i++ { // 64 × 64 B fills the arena
		off, err := b.Alloc(64)
		if err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
		offs = append(offs, off)
	}
	if _, err := b.Alloc(64); err == nil {
		t.Error("65th allocation must fail")
	}
	for _, off := range offs {
		if err := b.Free(off); err != nil {
			t.Fatal(err)
		}
	}
	if !b.coalesced() {
		t.Error("arena must coalesce back to one block")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOffsetsDisjoint(t *testing.T) {
	b, _ := New(1 << 14)
	seen := map[int64]int64{} // offset → size
	for i := 0; i < 20; i++ {
		size := int64(64 << (i % 4))
		off, err := b.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		for o, s := range seen {
			if off < o+s && o < off+size {
				t.Fatalf("overlap: [%d,%d) with [%d,%d)", off, off+size, o, o+s)
			}
		}
		seen[off] = size
	}
}

// TestFragmentationMetric: with every other 64 B block of the arena freed,
// half of it is free yet no two free blocks are buddies, so nothing larger
// than 64 B can be allocated.
func TestFragmentationMetric(t *testing.T) {
	b, _ := New(1 << 12)
	var offs []int64
	for {
		off, err := b.Alloc(64)
		if err != nil {
			break
		}
		offs = append(offs, off)
	}
	for i := 0; i < len(offs); i += 2 {
		if err := b.Free(offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if b.Used() != 1<<11 {
		t.Errorf("Used = %d, want half the arena", b.Used())
	}
	if _, err := b.Alloc(128); err == nil {
		t.Error("a 128 B block must not fit in 64 B islands")
	}
	if _, err := b.Alloc(64); err != nil {
		t.Errorf("a 64 B island must still fit: %v", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDeterministicFirstFit(t *testing.T) {
	// Two identical allocators given identical request streams must return
	// identical offsets (the runtime relies on this for reproducible runs).
	a, _ := New(1 << 16)
	b, _ := New(1 << 16)
	for i := 0; i < 50; i++ {
		sa, e1 := a.Alloc(int64(64 + i*17))
		sb, e2 := b.Alloc(int64(64 + i*17))
		if (e1 == nil) != (e2 == nil) || sa != sb {
			t.Fatalf("divergence at %d: %d/%v vs %d/%v", i, sa, e1, sb, e2)
		}
	}
}

// Property: any interleaving of allocs and frees preserves the allocator
// invariants and never hands out overlapping blocks.
func TestRandomWorkloadInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := New(1 << 16)
		if err != nil {
			return false
		}
		type blk struct{ off, size int64 }
		var live []blk
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				if err := b.Free(live[k].off); err != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				size := int64(1 + rng.Intn(4096))
				off, err := b.Alloc(size)
				if err != nil {
					continue // exhaustion is fine
				}
				rounded := BlockSize(size)
				for _, l := range live {
					if off < l.off+l.size && l.off < off+rounded {
						return false
					}
				}
				live = append(live, blk{off, rounded})
			}
		}
		return b.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: freeing everything always restores a fully coalesced arena.
func TestFullCoalesceProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		b, err := New(1 << 18)
		if err != nil {
			return false
		}
		var offs []int64
		for _, s := range sizes {
			off, err := b.Alloc(int64(s) + 1)
			if err != nil {
				break
			}
			offs = append(offs, off)
		}
		// Free in reverse order.
		for i := len(offs) - 1; i >= 0; i-- {
			if err := b.Free(offs[i]); err != nil {
				return false
			}
		}
		return b.Used() == 0 && b.coalesced() && b.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	buddy, err := New(1 << 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := buddy.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := buddy.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocChurn(b *testing.B) {
	buddy, err := New(1 << 28)
	if err != nil {
		b.Fatal(err)
	}
	var live []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) >= 1024 {
			if err := buddy.Free(live[0]); err != nil {
				b.Fatal(err)
			}
			live = live[1:]
		}
		off, err := buddy.Alloc(int64(64 << (i % 8)))
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, off)
	}
}
