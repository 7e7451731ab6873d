package fault

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// TestStoresConcurrentRoundtrip: many goroutines put, read back and delete
// distinct random payloads on one store at once, each reusing one buffer for
// every Put and one for every GetInto — what a checkpointer does with its
// staging list. Under the fabric the deletes feed slab backings to the nodes'
// free lists and the puts draw them again, at sizes that differ within a
// class, so a store that kept a reference to a caller's buffer, a slab handed
// out dirty, or a backing returned while still readable shows here as a
// payload mismatch (and under -race as a race).
func TestStoresConcurrentRoundtrip(t *testing.T) {
	stores := map[string]func(*cluster.Fabric) (Store, error){
		"replicated": func(f *cluster.Fabric) (Store, error) { return NewReplicatedStore(f, 2) },
		"erasure": func(f *cluster.Fabric) (Store, error) {
			return NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 16 << 10})
		},
	}
	for name, build := range stores {
		t.Run(name, func(t *testing.T) {
			s, err := build(fabricWithNodes(t, 6, 1<<26))
			if err != nil {
				t.Fatal(err)
			}
			const workers, rounds, keep = 8, 150, 6
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					stage := make([]byte, 8<<10)
					into := make([]byte, 8<<10)
					type obj struct {
						id   ObjectID
						want []byte
					}
					var live []obj
					check := func(o obj) bool {
						got, _, err := s.Get(o.id)
						if err != nil || !bytes.Equal(got, o.want) {
							t.Errorf("worker %d: Get(%d) = %d bytes, %v; want the %d put", w, o.id, len(got), err, len(o.want))
							return false
						}
						got, _, err = s.GetInto(o.id, into[:0])
						if err != nil || !bytes.Equal(got, o.want) {
							t.Errorf("worker %d: GetInto(%d) = %d bytes, %v; want the %d put", w, o.id, len(got), err, len(o.want))
							return false
						}
						if &got[0] != &into[0] {
							t.Errorf("worker %d: GetInto left a buffer that fits unused", w)
							return false
						}
						return true
					}
					for r := 0; r < rounds; r++ {
						data := stage[:1+rng.Intn(len(stage))]
						rng.Read(data)
						id, _, err := s.Put(data)
						if err != nil {
							t.Errorf("worker %d: Put: %v", w, err)
							return
						}
						live = append(live, obj{id, append([]byte(nil), data...)})
						// The staging buffer is ours again: scribble on it.
						for i := range data {
							data[i] = 0xFF
						}
						if !check(live[rng.Intn(len(live))]) {
							return
						}
						if len(live) > keep {
							k := rng.Intn(len(live))
							if _, err := s.Delete(live[k].id); err != nil {
								t.Errorf("worker %d: Delete: %v", w, err)
								return
							}
							live = append(live[:k], live[k+1:]...)
						}
					}
					for _, o := range live {
						if !check(o) {
							return
						}
						if _, err := s.Delete(o.id); err != nil {
							t.Errorf("worker %d: Delete: %v", w, err)
						}
					}
				}(w)
			}
			wg.Wait()
			if logical, _ := s.StoredBytes(); logical != 0 {
				t.Errorf("%d logical bytes left after every object was deleted", logical)
			}
		})
	}
}

// TestReplicatedCopiesStayNodeSorted pins read-any's order: whatever order
// the round-robin cursor and Recover file replicas in, an object's copies are
// sorted by node, so Get tries the same replica first on every run.
func TestReplicatedCopiesStayNodeSorted(t *testing.T) {
	f := fabricWithNodes(t, 4, 1<<20)
	s, err := NewReplicatedStore(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(when string) {
		t.Helper()
		for id, obj := range s.objects {
			for i := 1; i < len(obj.copies); i++ {
				if obj.copies[i-1].Node >= obj.copies[i].Node {
					t.Errorf("%s: object %d copies out of node order: %v", when, id, obj.copies)
				}
			}
		}
	}
	for i := 0; i < 8; i++ { // the cursor wraps: mem3, mem0, mem1 is one pick
		if _, _, err := s.Put([]byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	sorted("after puts")
	if err := f.Crash("mem0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart("mem0"); err != nil {
		t.Fatal(err)
	}
	if repaired, _, err := s.Recover(); err != nil || repaired == 0 {
		t.Fatalf("Recover = %d, %v; want repairs", repaired, err)
	}
	sorted("after recover")
	for id, obj := range s.objects {
		if len(obj.copies) != 3 {
			t.Errorf("object %d has %d copies after recover, want 3", id, len(obj.copies))
		}
	}
}
