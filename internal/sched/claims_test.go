package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// These tests use the ledger's four calls only and hold whatever holds the
// claims in flight; they passed unchanged on the ledger that kept them in a
// map by core, which refLedger below still is.

const us = time.Microsecond

// ledgerOf returns a ledger with the ranks enqueued.
func ledgerOf(ranks ...int) *ClaimLedger {
	l := new(ClaimLedger)
	for _, k := range ranks {
		l.Enqueue(k)
	}
	return l
}

func allReady(n int) ([]bool, []time.Duration) {
	ready := make([]bool, n)
	for i := range ready {
		ready[i] = true
	}
	return ready, make([]time.Duration, n)
}

func TestClaimLedgerGrants(t *testing.T) {
	t.Run("rank order, earliest core, lowest index on ties", func(t *testing.T) {
		l := ledgerOf(0, 1, 2)
		ready, readyAt := allReady(3)
		readyAt[1] = 7 * us
		cores := []time.Duration{5 * us, 2 * us, 2 * us, 9 * us}
		got := l.GrantBatch(cores, 3, ready, readyAt)
		want := []Grant{{0, 1, 2 * us}, {1, 2, 7 * us}}
		// Rank 2 would take core 0 (5µs), which an in-flight claim that
		// started at 2µs could still undercut: it waits.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	})
	t.Run("a head that is not ready blocks the ranks behind it", func(t *testing.T) {
		l := ledgerOf(0, 1)
		ready, readyAt := allReady(2)
		ready[0] = false
		if got := l.GrantBatch(make([]time.Duration, 4), 2, ready, readyAt); len(got) != 0 {
			t.Fatalf("granted %v past an unready head", got)
		}
		ready[0] = true
		if got := l.GrantBatch(make([]time.Duration, 4), 2, ready, readyAt); len(got) != 2 {
			t.Fatalf("granted %v once the head was ready, want both ranks", got)
		}
	})
	t.Run("determinism guard", func(t *testing.T) {
		// Core 0 is held from 3µs; the only free core is free at 4µs, later
		// than the in-flight start, so its clock could still be lowered.
		l := ledgerOf(0, 1)
		ready, readyAt := allReady(2)
		cores := []time.Duration{3 * us, 4 * us}
		if got := l.GrantBatch(cores, 2, ready, readyAt); !reflect.DeepEqual(got, []Grant{{0, 0, 3 * us}}) {
			t.Fatalf("first grant = %v", got)
		}
		if got := l.GrantBatch(cores, 2, ready, readyAt); len(got) != 0 {
			t.Fatalf("granted %v on a core later than an in-flight start", got)
		}
		// The claim retires at 6µs: nothing is in flight, the guard is moot.
		cores[0] = 6 * us
		l.Release(0)
		if got := l.GrantBatch(cores, 2, ready, readyAt); !reflect.DeepEqual(got, []Grant{{1, 1, 4 * us}}) {
			t.Fatalf("grant after release = %v", got)
		}
	})
	t.Run("limit", func(t *testing.T) {
		l := ledgerOf(0, 1, 2)
		ready, readyAt := allReady(3)
		if got := l.GrantBatch(make([]time.Duration, 4), 2, ready, readyAt); len(got) != 2 || got[1].Rank != 1 {
			t.Fatalf("grants below limit 2 = %v", got)
		}
		if got := l.GrantBatch(make([]time.Duration, 4), 2, ready, readyAt); len(got) != 0 {
			t.Fatalf("granted %v at the limit", got)
		}
	})
	t.Run("every core in flight", func(t *testing.T) {
		l := ledgerOf(0, 1, 2)
		ready, readyAt := allReady(3)
		cores := make([]time.Duration, 2)
		if got := l.GrantBatch(cores, 3, ready, readyAt); len(got) != 2 {
			t.Fatalf("grants = %v, want one per core", got)
		}
		if got := l.GrantBatch(cores, 3, ready, readyAt); len(got) != 0 {
			t.Fatalf("granted %v with no core free", got)
		}
	})
	t.Run("release then re-grant takes the lowest-index earliest core", func(t *testing.T) {
		l := ledgerOf(0, 1, 2, 3)
		ready, readyAt := allReady(4)
		cores := make([]time.Duration, 3)
		l.GrantBatch(cores, 4, ready, readyAt) // ranks 0..2 on cores 0..2
		for c := range cores {
			cores[c] = 8 * us
			l.Release(c)
		}
		if got := l.GrantBatch(cores, 4, ready, readyAt); !reflect.DeepEqual(got, []Grant{{3, 0, 8 * us}}) {
			t.Fatalf("re-grant = %v, want rank 3 on core 0", got)
		}
	})
	t.Run("the grants buffer is reused", func(t *testing.T) {
		l := ledgerOf(0, 1, 2, 3)
		ready, readyAt := allReady(4)
		cores := make([]time.Duration, 4)
		first := l.GrantBatch(cores, 2, ready, readyAt)
		held := first[0]
		second := l.GrantBatch(cores, 4, ready, readyAt)
		if len(second) != 2 || &first[0] != &second[0] {
			t.Fatalf("second batch %v does not reuse the first's buffer", second)
		}
		if first[0] == held {
			t.Fatal("the first batch's slice still reads its own grants after the second call")
		}
	})
}

// refLedger is the ledger as it was: in-flight claims in a map by core.
type refLedger struct {
	queue []int
	held  map[int]time.Duration
}

func (l *refLedger) grantBatch(cores []time.Duration, limit int, ready []bool, readyAt []time.Duration) []Grant {
	var grants []Grant
	for len(l.queue) > 0 {
		k := l.queue[0]
		if k >= limit || !ready[k] {
			break
		}
		cand, found := 0, false
		for i := range cores {
			if _, busy := l.held[i]; busy {
				continue
			}
			if !found || cores[i] < cores[cand] {
				cand, found = i, true
			}
		}
		if !found {
			break
		}
		blocked := false
		for _, s := range l.held {
			if cores[cand] > s {
				blocked = true
			}
		}
		if blocked {
			break
		}
		start := max(readyAt[k], cores[cand])
		l.held[cand] = start
		grants = append(grants, Grant{Rank: k, Core: cand, Start: start})
		l.queue = l.queue[1:]
	}
	return grants
}

// TestClaimLedgerAgainstReference drives the ledger and the map-held
// reference through the same random history — ranks becoming ready, batches
// granted, claims retiring in random order at random finish times, a limit
// that sometimes bites — and requires the same grants at every step. One
// ledger serves every history, Reset in between with claims still in flight
// and ranks still queued, as a recycled dispatcher's is; the reference starts
// fresh each time.
func TestClaimLedgerAgainstReference(t *testing.T) {
	l := new(ClaimLedger)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, nCores := 1+rng.Intn(40), 1+rng.Intn(6)
		l.Reset()
		ref := &refLedger{held: map[int]time.Duration{}}
		for k := 0; k < n; k++ {
			l.Enqueue(k)
			ref.queue = append(ref.queue, k)
		}
		cores := make([]time.Duration, nCores)
		for c := range cores {
			cores[c] = time.Duration(rng.Intn(5)) * us
		}
		ready, readyAt := make([]bool, n), make([]time.Duration, n)
		limit := n
		if rng.Intn(4) == 0 {
			limit = rng.Intn(n + 1)
		}
		type flight struct {
			core  int
			start time.Duration
		}
		var flying []flight
		for step := 0; step < 6*n; step++ {
			switch rng.Intn(3) {
			case 0: // a rank becomes ready
				k := rng.Intn(n)
				ready[k], readyAt[k] = true, time.Duration(rng.Intn(40))*us
			case 1: // a claim retires
				if len(flying) == 0 {
					continue
				}
				i := rng.Intn(len(flying))
				f := flying[i]
				flying = append(flying[:i], flying[i+1:]...)
				cores[f.core] = f.start + time.Duration(rng.Intn(10))*us
				l.Release(f.core)
				delete(ref.held, f.core)
			}
			got, want := l.GrantBatch(cores, limit, ready, readyAt), ref.grantBatch(cores, limit, ready, readyAt)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("seed %d step %d: grants %v, reference %v", seed, step, got, want)
			}
			for _, g := range got {
				ready[g.Rank] = false // claimed: the dispatcher clears the mask
				flying = append(flying, flight{g.Core, g.Start})
			}
		}
	}
}
