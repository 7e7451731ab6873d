// Package allocator provides the per-device physical allocators the runtime
// system uses when it maps Memory Regions onto simulated devices. It is a
// classic binary buddy allocator: power-of-two blocks, O(log n) allocate and
// free, buddies coalesce on free. The runtime keeps one Buddy per memory
// device and carves regions out of the device's backing arena.
package allocator

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// MinOrder is the smallest block the allocator hands out (64 B, one cache
// line — also the dominant granularity in Table 1).
const MinOrder = 6

// MaxOrders bounds the number of order levels (2^(6+47) covers any arena).
const maxOrders = 48

// Buddy is a binary buddy allocator over a byte range [0, size).
// The zero value is not usable; call New. It is not safe for concurrent use:
// the region manager serializes it, calling Alloc and Free only under its
// table lock.
type Buddy struct {
	size     int64
	maxOrder int
	// free[k] holds the offsets of the free blocks of size 2^k, sorted
	// descending: the lowest offset, the one Alloc takes, is the last, and
	// coalescing finds a buddy by binary search.
	free [][]int64
	// live holds a byte per 64 B block of the arena up to the highest live
	// block's start: order+1 at a live block's first 64 B, 0 elsewhere. Every
	// byte past its length, up to its capacity, is 0, so the table grows by
	// reslicing into its capacity and shrinks by trimming its zero tail.
	live []uint8
	used int64
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
		size:     size,
		maxOrder: maxOrder,
		free:     make([][]int64, maxOrder+1),
	}
	b.free[maxOrder] = []int64{0}
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

// search returns the index of the first offset in the descending list s that
// is not above off: where off is, or would be inserted.
func search(s []int64, off int64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] > off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
	// Find the smallest order ≥ request with a free block.
	k := order
	for k <= b.maxOrder && len(b.free[k]) == 0 {
		k++
	}
	if k > b.maxOrder {
		return 0, fmt.Errorf("allocator: out of memory (want %d, %d used of %d)", n, b.used, b.size)
	}
	// Take the lowest-offset free block for determinism.
	last := len(b.free[k]) - 1
	off := b.free[k][last]
	b.free[k] = b.free[k][:last]
	// Split down to the target order, freeing the upper halves.
	for k > order {
		k--
		buddy := off + (1 << k)
		b.free[k] = slices.Insert(b.free[k], search(b.free[k], buddy), buddy)
	}
	i := int(off >> MinOrder)
	if i >= len(b.live) {
		if i >= cap(b.live) {
			b.live = slices.Grow(b.live, i+1-len(b.live))
		}
		b.live = b.live[:i+1]
	}
	b.live[i] = uint8(order + 1)
	b.used += 1 << order
	return off, nil
}

// trimZeros cuts s's zero tail, eight bytes at a time while it can: freeing
// the highest live block uncovers the free space and block interiors below it
// back to the next live block's start.
func trimZeros(s []uint8) []uint8 {
	n := len(s)
	for n >= 8 && binary.LittleEndian.Uint64(s[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && s[n-1] == 0 {
		n--
	}
	return s[:n]
}

// liveOrder returns the order of the live block starting at off, false when
// no live block starts there: a negative, misaligned or out-of-range offset,
// one inside a live block, or one no block holds.
func (b *Buddy) liveOrder(off int64) (int, bool) {
	if off < 0 || off&(1<<MinOrder-1) != 0 || off>>MinOrder >= int64(len(b.live)) {
		return 0, false
	}
	k := b.live[off>>MinOrder]
	return int(k) - 1, k != 0
}

// Free releases a previously allocated block and coalesces buddies.
func (b *Buddy) Free(off int64) error {
	order, ok := b.liveOrder(off)
	if !ok {
		return fmt.Errorf("allocator: free of unallocated offset %d", off)
	}
	b.live[off>>MinOrder] = 0
	b.live = trimZeros(b.live)
	b.used -= 1 << order
	for order < b.maxOrder {
		buddy := off ^ (1 << order)
		i := search(b.free[order], buddy)
		if i == len(b.free[order]) || b.free[order][i] != buddy {
			break
		}
		b.free[order] = slices.Delete(b.free[order], i, i+1)
		if buddy < off {
			off = buddy
		}
		order++
	}
	b.free[order] = slices.Insert(b.free[order], search(b.free[order], off), off)
	return nil
}
