// Package allocator provides the per-device physical allocators the runtime
// system uses when it maps Memory Regions onto simulated devices. It is a
// classic binary buddy allocator: power-of-two blocks, O(log n) allocate and
// free, buddies coalesce on free. The runtime keeps one Buddy per memory
// device and carves regions out of the device's backing arena.
package allocator

import (
	"fmt"
	"math/bits"
	"sync"
)

// MinOrder is the smallest block the allocator hands out (64 B, one cache
// line — also the dominant granularity in Table 1).
const MinOrder = 6

// MaxOrders bounds the number of order levels (2^(6+47) covers any arena).
const maxOrders = 48

// Buddy is a binary buddy allocator over a byte range [0, size).
// The zero value is not usable; call New.
type Buddy struct {
	mu       sync.Mutex
	size     int64
	maxOrder int
	// free[k] holds offsets of free blocks of size 2^k, as a set for O(1)
	// buddy lookup during coalescing.
	free []map[int64]struct{}
	// allocated maps offset → order for live blocks.
	allocated map[int64]int
	used      int64
}

// New builds an allocator managing size bytes. Size must be a power of two
// ≥ 2^MinOrder.
func New(size int64) (*Buddy, error) {
	if size < 1<<MinOrder {
		return nil, fmt.Errorf("allocator: size %d below minimum block %d", size, 1<<MinOrder)
	}
	if size&(size-1) != 0 {
		return nil, fmt.Errorf("allocator: size %d not a power of two", size)
	}
	maxOrder := bits.TrailingZeros64(uint64(size))
	if maxOrder >= maxOrders {
		return nil, fmt.Errorf("allocator: size %d too large", size)
	}
	b := &Buddy{
		size:      size,
		maxOrder:  maxOrder,
		free:      make([]map[int64]struct{}, maxOrder+1),
		allocated: make(map[int64]int),
	}
	for i := range b.free {
		b.free[i] = make(map[int64]struct{})
	}
	b.free[maxOrder][0] = struct{}{}
	return b, nil
}

// orderFor returns the smallest order whose block holds n bytes.
func orderFor(n int64) int {
	if n <= 1<<MinOrder {
		return MinOrder
	}
	o := bits.Len64(uint64(n - 1))
	return o
}

// BlockSize returns the rounded size a request of n bytes actually consumes.
func BlockSize(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return 1 << orderFor(n)
}

// Alloc reserves a block of at least n bytes and returns its offset.
func (b *Buddy) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("allocator: alloc of %d bytes", n)
	}
	order := orderFor(n)
	if order > b.maxOrder {
		return 0, fmt.Errorf("allocator: request %d exceeds arena %d", n, b.size)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Find the smallest order ≥ request with a free block.
	k := order
	for k <= b.maxOrder && len(b.free[k]) == 0 {
		k++
	}
	if k > b.maxOrder {
		return 0, fmt.Errorf("allocator: out of memory (want %d, %d used of %d)", n, b.used, b.size)
	}
	// Take the lowest-offset free block for determinism.
	off := int64(-1)
	for o := range b.free[k] {
		if off < 0 || o < off {
			off = o
		}
	}
	delete(b.free[k], off)
	// Split down to the target order, freeing the upper halves.
	for k > order {
		k--
		buddy := off + (1 << k)
		b.free[k][buddy] = struct{}{}
	}
	b.allocated[off] = order
	b.used += 1 << order
	return off, nil
}

// Free releases a previously allocated block and coalesces buddies.
func (b *Buddy) Free(off int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	order, ok := b.allocated[off]
	if !ok {
		return fmt.Errorf("allocator: free of unallocated offset %d", off)
	}
	delete(b.allocated, off)
	b.used -= 1 << order
	for order < b.maxOrder {
		buddy := off ^ (1 << order)
		if _, free := b.free[order][buddy]; !free {
			break
		}
		delete(b.free[order], buddy)
		if buddy < off {
			off = buddy
		}
		order++
	}
	b.free[order][off] = struct{}{}
	return nil
}
