package allocator

import (
	"sync"
	"testing"
)

// table stands for an owner's recycled state: its footprint is its capacity.
type table struct{ rows []int64 }

func tableBytes(t *table) int64 { return int64(cap(t.rows)) * 8 }

func TestFreeListBounds(t *testing.T) {
	l := NewFreeList(4, 1000, tableBytes)
	if x := l.Get(); x == nil || x.rows != nil {
		t.Fatal("an empty list must hand out a new zero object")
	}
	// Past the byte bound alone: left to the collector.
	l.Put(&table{rows: make([]int64, 126)})
	if l.Len() != 0 || l.Held() != 0 {
		t.Fatalf("an object past the bound was kept: %d entries, %d bytes", l.Len(), l.Held())
	}
	// Middling ones: the byte bound cuts in first.
	for i := 0; i < 8; i++ {
		l.Put(&table{rows: make([]int64, 40)})
	}
	if l.Len() != 3 || l.Held() != 960 {
		t.Errorf("middling objects: %d entries, %d bytes, want 3 and 960", l.Len(), l.Held())
	}
	// Small ones: the entry bound.
	for l.Len() > 0 {
		l.Get()
	}
	if l.Held() != 0 {
		t.Fatalf("emptied list still counts %d bytes", l.Held())
	}
	small := make([]*table, 8)
	for i := range small {
		small[i] = &table{rows: make([]int64, 1)}
		l.Put(small[i])
	}
	if l.Len() != 4 || l.Held() != 32 {
		t.Errorf("small objects: %d entries, %d bytes, want 4 and 32", l.Len(), l.Held())
	}
	// Last in, first out, counted off at what it was counted on at.
	got := l.Get()
	if got != small[3] {
		t.Error("Get did not return the object put back last")
	}
	got.rows = make([]int64, 100)
	if l.Held() != 24 {
		t.Errorf("Held = %d after one Get, want 24", l.Held())
	}
}

func TestFreeListConcurrent(t *testing.T) {
	l := NewFreeList(8, 1<<20, tableBytes)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				if x.rows == nil {
					x.rows = make([]int64, 16)
				}
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := l.Len(); n == 0 || n > 4 || l.Held() != int64(n)*128 {
		t.Errorf("after four goroutines cycled: %d entries, %d bytes", n, l.Held())
	}
}
