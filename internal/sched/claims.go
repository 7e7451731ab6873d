package sched

import (
	"time"
	"unsafe"
)

// This file implements the rank-ordered virtual-core claim ledger the
// wavefront executor grants against. The ledger is the determinism-critical
// half of parallel dispatch: per compute device, tasks claim cores strictly
// in rank order, and a claim is granted only when the chosen core's
// availability can no longer be lowered by any in-flight lower rank. The
// executor used to inline this machinery per device and grant one claim per
// wakeup; the ledger batches instead — GrantBatch walks the whole run of
// consecutive grantable head-of-queue ranks inside one critical section, so
// a completion that unblocks several ranks costs one pass, not one
// lock-acquire/wake cycle per rank.
//
// The ledger itself is not goroutine-safe: callers (the wavefront pool)
// serialize access under their own dispatcher lock, which is where the
// "one critical section" batching happens.

// Grant is one GrantBatch decision: rank k starts on core at start.
type Grant struct {
	Rank  int
	Core  int
	Start time.Duration
}

// ClaimLedger is the per-compute-device claim state: the ascending queue of
// ranks still awaiting a core and the claims currently in flight. The zero
// value is an empty ledger.
type ClaimLedger struct {
	// queue holds the ranks enqueued, ascending; those from head on still
	// await a core claim. Granting moves head and leaves the slice whole, so a
	// Reset ledger fills the same array again.
	queue []int
	head  int
	// held is indexed by core: the in-flight claim's start plus one, zero for
	// a free core. Sized by the first grant.
	held   []time.Duration
	grants []Grant // reusable GrantBatch result buffer
}

// NewClaimLedger returns an empty ledger.
func NewClaimLedger() *ClaimLedger { return &ClaimLedger{} }

// Reset empties the ledger for another run and keeps what it had allocated.
func (l *ClaimLedger) Reset() {
	l.queue, l.head, l.grants = l.queue[:0], 0, l.grants[:0]
	clear(l.held)
}

// Footprint returns the bytes the ledger's buffers keep allocated, for a
// holder that recycles ledgers under a byte bound.
func (l *ClaimLedger) Footprint() int {
	return cap(l.queue)*int(unsafe.Sizeof(0)) + cap(l.held)*int(unsafe.Sizeof(time.Duration(0))) +
		cap(l.grants)*int(unsafe.Sizeof(Grant{}))
}

// Enqueue appends a rank to the claim queue. Callers enqueue in ascending
// rank order (the wavefront builds queues by iterating ranks 0..n-1).
func (l *ClaimLedger) Enqueue(rank int) { l.queue = append(l.queue, rank) }

// Release drops the in-flight claim on a core (task finished, or a failure
// revoked an unlaunched claim).
func (l *ClaimLedger) Release(core int) {
	if core < len(l.held) {
		l.held[core] = 0
	}
}

// GrantBatch grants claims to the longest run of consecutive grantable
// head-of-queue ranks in one pass and returns them. A rank is grantable when
// it is below limit (the failure frontier; pass len(ready) when no rank is
// excluded), ready[rank] is true (DAG-ready and not yet claimed), a core is
// free, and the determinism guard holds: the free core's availability must
// not exceed the earliest in-flight claim's start, since an in-flight task
// finishes no earlier than it starts and could otherwise still lower the
// chosen clock. readyAt[rank] is the max predecessor finish.
//
// The returned slice is reused by the next GrantBatch call — callers consume
// it before touching the ledger again.
func (l *ClaimLedger) GrantBatch(cores []time.Duration, limit int, ready []bool, readyAt []time.Duration) []Grant {
	l.grants = l.grants[:0]
	if len(l.held) < len(cores) && l.head < len(l.queue) {
		l.held = append(l.held, make([]time.Duration, len(cores)-len(l.held))...)
	}
	for l.head < len(l.queue) {
		k := l.queue[l.head]
		if k >= limit || !ready[k] {
			break // head not dispatchable: later ranks must wait their turn
		}
		cand, ok := l.freeCore(cores)
		if !ok {
			break // every core is in flight
		}
		if s, held := l.minHeldStart(); held && cores[cand] > s {
			break
		}
		start := readyAt[k]
		if cores[cand] > start {
			start = cores[cand]
		}
		l.held[cand] = start + 1
		l.grants = append(l.grants, Grant{Rank: k, Core: cand, Start: start})
		l.head++
	}
	return l.grants
}

// freeCore returns the earliest-available core not held by an in-flight
// claim (lowest index on ties — the same tie-break sequential argmin used).
func (l *ClaimLedger) freeCore(cores []time.Duration) (int, bool) {
	best, found := 0, false
	for i := range cores {
		if l.held[i] != 0 {
			continue
		}
		if !found || cores[i] < cores[best] {
			best, found = i, true
		}
	}
	return best, found
}

// minHeldStart returns the earliest start among in-flight claims.
func (l *ClaimLedger) minHeldStart() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, s := range l.held {
		if s != 0 && (!found || s-1 < min) {
			min, found = s-1, true
		}
	}
	return min, found
}
