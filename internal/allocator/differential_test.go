package allocator

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// mapBuddy is the buddy allocator as it was before its free lists became
// sorted slices: one set per order, scanned in full for the lowest offset.
// It is the oracle Buddy's offsets and refusals are checked against.
type mapBuddy struct {
	size      int64
	maxOrder  int
	free      []map[int64]struct{}
	allocated map[int64]int
	used      int64
}

func newMapBuddy(size int64) *mapBuddy {
	maxOrder := bits.TrailingZeros64(uint64(size))
	b := &mapBuddy{
		size:      size,
		maxOrder:  maxOrder,
		free:      make([]map[int64]struct{}, maxOrder+1),
		allocated: make(map[int64]int),
	}
	for i := range b.free {
		b.free[i] = make(map[int64]struct{})
	}
	b.free[maxOrder][0] = struct{}{}
	return b
}

func (b *mapBuddy) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("allocator: alloc of %d bytes", n)
	}
	order := orderFor(n)
	if order > b.maxOrder {
		return 0, fmt.Errorf("allocator: request %d exceeds arena %d", n, b.size)
	}
	k := order
	for k <= b.maxOrder && len(b.free[k]) == 0 {
		k++
	}
	if k > b.maxOrder {
		return 0, fmt.Errorf("allocator: out of memory (want %d, %d used of %d)", n, b.used, b.size)
	}
	off := int64(-1)
	for o := range b.free[k] {
		if off < 0 || o < off {
			off = o
		}
	}
	delete(b.free[k], off)
	for k > order {
		k--
		b.free[k][off+(1<<k)] = struct{}{}
	}
	b.allocated[off] = order
	b.used += 1 << order
	return off, nil
}

func (b *mapBuddy) Free(off int64) error {
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

// errText renders an error for comparison, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBuddyMatchesMapOracle runs seeded random Alloc/Free sequences on Buddy
// and on the map-based oracle: every offset and every error must be the same,
// and Buddy's invariants must hold after every step. Each run also fills its
// arena to exhaustion, then frees it back to one block.
func TestBuddyMatchesMapOracle(t *testing.T) {
	for _, size := range []int64{1 << 6, 1 << 10, 1 << 14, 1 << 18} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("size=%d/seed=%d", size, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				b, err := New(size)
				if err != nil {
					t.Fatal(err)
				}
				o := newMapBuddy(size)
				var live []int64
				step := func(op string, got int64, gerr error, want int64, werr error) {
					t.Helper()
					if got != want || errText(gerr) != errText(werr) {
						t.Fatalf("%s: buddy (%d, %v), oracle (%d, %v)", op, got, gerr, want, werr)
					}
					if err := b.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
				}
				alloc := func(n int64) bool {
					got, gerr := b.Alloc(n)
					want, werr := o.Alloc(n)
					step(fmt.Sprintf("Alloc(%d)", n), got, gerr, want, werr)
					if gerr == nil {
						live = append(live, got)
					}
					return gerr == nil
				}
				free := func(i int) {
					off := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					step(fmt.Sprintf("Free(%d)", off), 0, b.Free(off), 0, o.Free(off))
				}
				const ops = 4000
				for i := 0; i < ops; i++ {
					switch r := rng.Intn(10); {
					case r < 5 || len(live) == 0:
						// Sizes from one byte to a quarter of the arena, with a
						// heavy tail of small ones, and now and then one that
						// cannot fit.
						n := 1 + rng.Int63n(max(size>>uint(rng.Intn(10)+2), 1))
						if rng.Intn(50) == 0 {
							n = size + 1
						}
						alloc(n)
					case r < 9:
						free(rng.Intn(len(live)))
					default:
						// A free of an offset nobody holds: both refuse it.
						if off := rng.Int63n(size); !slices.Contains(live, off) {
							step(fmt.Sprintf("Free(%d)", off), 0, b.Free(off), 0, o.Free(off))
						}
					}
				}
				for alloc(1 + rng.Int63n(size/16)) {
				}
				for alloc(1) {
				}
				for len(live) > 0 {
					free(rng.Intn(len(live)))
				}
				if !b.coalesced() {
					t.Fatal("arena did not coalesce back to one block")
				}
			})
		}
	}
}
