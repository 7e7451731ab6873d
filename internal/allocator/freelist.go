package allocator

import "sync"

// FreeList is a bounded free list of recycled objects of one kind: what an
// owner keeps of the tables its last user grew, for its next user. It is
// bounded twice, in entries and in the sum of the objects' footprints — what
// their tables keep reachable, measured by Put. An object that would take the
// list past either bound is left to the collector, so a burst of big users
// pins at most the byte bound and one whose tables alone exceed it pins
// nothing. What the list holds depends only on its owner's own Gets and Puts,
// never on the collector. Safe for concurrent use.
type FreeList[T any] struct {
	maxEntries int
	maxBytes   int64
	footprint  func(*T) int64

	mu   sync.Mutex
	free []freeEntry[T]
	held int64
}

// freeEntry is one recycled object and the footprint it was counted at.
type freeEntry[T any] struct {
	x    *T
	size int64
}

// NewFreeList returns an empty list bounded at maxEntries objects and maxBytes
// of their footprints' sum.
func NewFreeList[T any](maxEntries int, maxBytes int64, footprint func(*T) int64) *FreeList[T] {
	return &FreeList[T]{maxEntries: maxEntries, maxBytes: maxBytes, footprint: footprint}
}

// Get returns the object put back last, or a new zero one when the list is
// empty.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	e := l.free[n-1]
	l.free[n-1] = freeEntry[T]{}
	l.free = l.free[:n-1]
	l.held -= e.size
	l.mu.Unlock()
	return e.x
}

// Put recycles x if both bounds have room for it. The caller must not use x
// afterwards, and should first drop what x points to that is not its own.
func (l *FreeList[T]) Put(x *T) {
	size := l.footprint(x)
	l.mu.Lock()
	if len(l.free) < l.maxEntries && l.held+size <= l.maxBytes {
		l.free = append(l.free, freeEntry[T]{x, size})
		l.held += size
	}
	l.mu.Unlock()
}

// Len returns the number of objects the list holds.
func (l *FreeList[T]) Len() int {
	l.mu.Lock()
	n := len(l.free)
	l.mu.Unlock()
	return n
}

// Held returns the footprints' sum of the objects the list holds, never more
// than its byte bound.
func (l *FreeList[T]) Held() int64 {
	l.mu.Lock()
	held := l.held
	l.mu.Unlock()
	return held
}
