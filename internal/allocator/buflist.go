package allocator

// BufList is a bounded free list of byte buffers, recycled by power-of-two
// capacity class: what a memory node does with freed slab backings and a
// checkpointer with its staging buffers, so that a steady churn of payloads
// allocates nothing. Every buffer Get hands out has the capacity of its class
// (BlockSize of the request), which is what lets Put file it again without
// being told who asked for it; a buffer of any other capacity, or one that
// would take the retained total past Limit, is left to the collector, and a
// request whose class alone exceeds Limit is allocated exactly. The zero value
// with a Limit is ready to use. Not safe for concurrent use: the owner's lock
// covers it.
type BufList struct {
	// Limit bounds the bytes (capacities) the list retains.
	Limit int64
	held  int64
	free  [maxOrders][][]byte
}

// Get returns a buffer of length size: a recycled one when the list holds one
// of its class, a fresh one otherwise. zero asks for what a fresh allocation
// guarantees, all zeros; without it a recycled buffer still carries its last
// user's bytes, which suits a caller about to overwrite every one of them.
func (l *BufList) Get(size int64, zero bool) []byte {
	block := BlockSize(size)
	if block > l.Limit {
		return make([]byte, size)
	}
	k := orderFor(size) - MinOrder
	n := len(l.free[k])
	if n == 0 {
		return make([]byte, size, block)
	}
	buf := l.free[k][n-1][:size]
	l.free[k][n-1] = nil
	l.free[k] = l.free[k][:n-1]
	l.held -= block
	if zero {
		clear(buf)
	}
	return buf
}

// Put recycles buf if its capacity is a class and the bound has room for it.
// The caller must not use buf afterwards.
func (l *BufList) Put(buf []byte) {
	c := int64(cap(buf))
	if c < 1<<MinOrder || c&(c-1) != 0 || l.held+c > l.Limit {
		return
	}
	k := orderFor(c) - MinOrder
	l.free[k] = append(l.free[k], buf[:c])
	l.held += c
}

// Held returns the bytes the list retains, never more than Limit.
func (l *BufList) Held() int64 { return l.held }

// Reset drops every retained buffer.
func (l *BufList) Reset() { *l = BufList{Limit: l.Limit} }
