package fault

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func fabricWithNodes(t testing.TB, n int, capacity int64) *cluster.Fabric {
	t.Helper()
	f := cluster.NewFabric(cluster.Config{})
	for i := 0; i < n; i++ {
		if err := f.AddNode(fmt.Sprintf("mem%d", i), capacity); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// --- ReplicatedStore ---

func TestReplicatedPutGet(t *testing.T) {
	f := fabricWithNodes(t, 4, 1<<20)
	s, err := NewReplicatedStore(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("replicate me thrice")
	id, d, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("put must cost virtual time")
	}
	got, _, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("get must return stored bytes")
	}
	logical, physical := s.StoredBytes()
	if logical != int64(len(data)) || physical != 3*int64(len(data)) {
		t.Errorf("bytes = %d/%d, want %d/%d", logical, physical, len(data), 3*len(data))
	}
}

func TestReplicatedValidation(t *testing.T) {
	f := fabricWithNodes(t, 2, 1<<20)
	if _, err := NewReplicatedStore(f, 0); err == nil {
		t.Error("replicas=0 must fail")
	}
	if _, err := NewReplicatedStore(f, 3); err == nil {
		t.Error("3 replicas on 2 nodes must fail")
	}
	s, _ := NewReplicatedStore(f, 2)
	if _, _, err := s.Put(nil); err == nil {
		t.Error("empty put must fail")
	}
	if _, _, err := s.Get(42); !errors.Is(err, ErrNotFound) {
		t.Error("unknown get must be ErrNotFound")
	}
	if _, err := s.Delete(42); !errors.Is(err, ErrNotFound) {
		t.Error("unknown delete must be ErrNotFound")
	}
}

func TestReplicatedSurvivesCrashes(t *testing.T) {
	f := fabricWithNodes(t, 4, 1<<20)
	s, _ := NewReplicatedStore(f, 3)
	data := []byte("survives two crashes")
	id, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Crash two of the four nodes; with 3 replicas at least one survives.
	if err := f.Crash("mem0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("mem1"); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-any must find a live replica")
	}
}

func TestReplicatedRecoverRestoresRedundancy(t *testing.T) {
	f := fabricWithNodes(t, 4, 1<<20)
	s, _ := NewReplicatedStore(f, 2)
	var ids []ObjectID
	for i := 0; i < 8; i++ {
		id, _, err := s.Put([]byte(fmt.Sprintf("object-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := f.Crash("mem0"); err != nil {
		t.Fatal(err)
	}
	repaired, d, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Error("crash of a hosting node must trigger repairs")
	}
	if d <= 0 {
		t.Error("recovery must take virtual time")
	}
	// Full redundancy restored: any object readable even if another node dies.
	_, physical := s.StoredBytes()
	var logical int64
	for _, id := range ids {
		got, _, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		logical += int64(len(got))
	}
	if physical != 2*logical {
		t.Errorf("post-recovery physical = %d, want %d", physical, 2*logical)
	}
}

func TestReplicatedDeleteFrees(t *testing.T) {
	f := fabricWithNodes(t, 3, 1<<20)
	s, _ := NewReplicatedStore(f, 2)
	id, _, _ := s.Put(make([]byte, 1000))
	if _, err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Error("deleted object must be gone")
	}
	for _, n := range f.Nodes() {
		used, _, _ := f.NodeUsage(n)
		if used != 0 {
			t.Errorf("%s still holds %d bytes", n, used)
		}
	}
}

// --- ErasureStore ---

func TestErasurePutGetWithFlush(t *testing.T) {
	f := fabricWithNodes(t, 6, 1<<22)
	s, err := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("erasure-coded object payload")
	id, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	// Readable while staged.
	got, _, err := s.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("staged get = %q, %v", got, err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.spans) != 1 {
		t.Errorf("spans = %d, want 1", len(s.spans))
	}
	got, _, err = s.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sealed get = %q, %v", got, err)
	}
}

func TestErasureValidation(t *testing.T) {
	f := fabricWithNodes(t, 3, 1<<20)
	if _, err := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2}); err == nil {
		t.Error("6 shards on 3 nodes must fail")
	}
	f6 := fabricWithNodes(t, 6, 1<<20)
	s, err := NewErasureStore(f6, ErasureConfig{Data: 4, Parity: 2, SpanSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(nil); err == nil {
		t.Error("empty put must fail")
	}
	if _, _, err := s.Put(make([]byte, 4096)); err == nil {
		t.Error("object above span size must fail")
	}
	if _, _, err := s.Get(99); !errors.Is(err, ErrNotFound) {
		t.Error("unknown get must be ErrNotFound")
	}
}

func TestErasureAutoSealsFullSpans(t *testing.T) {
	f := fabricWithNodes(t, 6, 1<<22)
	s, _ := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 1024})
	for i := 0; i < 10; i++ {
		if _, _, err := s.Put(make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.spans) < 2 {
		t.Errorf("10×300B into 1KiB spans must seal ≥2 spans, got %d", len(s.spans))
	}
}

func TestErasureDegradedRead(t *testing.T) {
	f := fabricWithNodes(t, 6, 1<<22)
	s, _ := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 2048})
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i * 7)
	}
	id, _, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash up to parity-many nodes: reads must still succeed.
	if err := f.Crash("mem0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("mem3"); err != nil {
		t.Fatal(err)
	}
	got, dt, err := s.Get(id)
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("degraded read must reconstruct exact bytes")
	}
	if dt <= 0 {
		t.Error("degraded read must cost time")
	}
}

func TestErasureTooManyCrashesFails(t *testing.T) {
	f := fabricWithNodes(t, 6, 1<<22)
	s, _ := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 2048})
	id, _, _ := s.Put(make([]byte, 500))
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"mem0", "mem1", "mem2"} {
		if err := f.Crash(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Get(id); err == nil {
		t.Error("3 crashes with parity 2 must fail the read")
	}
}

func TestErasureRecoverRebuildsShards(t *testing.T) {
	f := fabricWithNodes(t, 8, 1<<22)
	s, _ := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 2048})
	data := make([]byte, 1800)
	for i := range data {
		data[i] = byte(i)
	}
	id, _, _ := s.Put(data)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("mem0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("mem1"); err != nil {
		t.Fatal(err)
	}
	repaired, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Error("recover must rebuild lost shards")
	}
	// Now crash two *more* nodes: data must still be readable because
	// redundancy was re-established on the surviving nodes.
	if err := f.Crash("mem2"); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("post-recovery read mismatch")
	}
}

// TestErasureDeleteFreesDeadSpans: a store whose objects are all deleted
// holds no fabric memory, and an object that shared its span with deleted
// ones still reads back, healthy, degraded and after Recover.
func TestErasureDeleteFreesDeadSpans(t *testing.T) {
	f := fabricWithNodes(t, 8, 1<<26)
	s, _ := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 64 << 10})
	obj := make([]byte, 4096)
	for i := 0; i < 6400; i++ {
		id, _, err := s.Put(obj)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if logical, physical := s.StoredBytes(); logical != 0 || physical != 0 {
		t.Errorf("after deleting everything: %d logical, %d physical bytes; want 0, 0", logical, physical)
	}
	for _, n := range f.Nodes() {
		if used, _, _ := f.NodeUsage(n); used != 0 {
			t.Errorf("%s still holds %d bytes", n, used)
		}
	}

	// One survivor among deleted neighbours, in a span sealed before and
	// after they died.
	var ids []ObjectID
	for i := 0; i < 12; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 250)
		id, _, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i == 5 {
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	keep := []ObjectID{ids[3], ids[9]}
	for _, id := range ids {
		if id != keep[0] && id != keep[1] {
			if _, err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(label string) {
		t.Helper()
		for _, id := range keep {
			got, _, err := s.Get(id)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(id - ids[0])}, 250)) {
				t.Fatalf("%s: object %d = %v, %v", label, id, got, err)
			}
		}
	}
	check("healthy")
	for _, n := range []string{"mem0", "mem1"} {
		if err := f.Crash(n); err != nil {
			t.Fatal(err)
		}
	}
	check("degraded")
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("mem2"); err != nil {
		t.Fatal(err)
	}
	check("after Recover")
	for _, id := range keep {
		if _, err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, physical := s.StoredBytes(); physical != 0 {
		t.Errorf("after deleting the survivors: %d physical bytes, want 0", physical)
	}
}

func TestErasureOverheadBeatsReplication(t *testing.T) {
	// The Carbink headline: RS(6,4) ≈ 1.5× vs 2× for 2-replication at equal
	// fault tolerance budget (here: sustain 2 node losses needs RS parity 2
	// vs 3 replicas ⇒ 1.5× vs 3×).
	fr := fabricWithNodes(t, 6, 1<<24)
	rep, _ := NewReplicatedStore(fr, 3)
	fe := fabricWithNodes(t, 6, 1<<24)
	ec, _ := NewErasureStore(fe, ErasureConfig{Data: 4, Parity: 2, SpanSize: 8192})
	payload := make([]byte, 2048)
	for i := 0; i < 16; i++ {
		if _, _, err := rep.Put(payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ec.Put(payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ec.Flush(); err != nil {
		t.Fatal(err)
	}
	lr, pr := rep.StoredBytes()
	le, pe := ec.StoredBytes()
	repOverhead := float64(pr) / float64(lr)
	ecOverhead := float64(pe) / float64(le)
	if repOverhead < 2.9 || repOverhead > 3.1 {
		t.Errorf("replication overhead = %f, want ≈3", repOverhead)
	}
	if ecOverhead > 1.7 {
		t.Errorf("erasure overhead = %f, want ≈1.5", ecOverhead)
	}
	if ecOverhead >= repOverhead {
		t.Error("erasure coding must be cheaper than replication")
	}
}

// Property: random Put/Get/Delete/Flush/crash-within-budget sequences never
// lose a live object in the erasure store.
func TestErasureDurabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fab := fabricWithNodes(t, 7, 1<<22)
		s, err := NewErasureStore(fab, ErasureConfig{Data: 3, Parity: 2, SpanSize: 1024})
		if err != nil {
			return false
		}
		live := map[ObjectID][]byte{}
		crashed := 0
		for op := 0; op < 60; op++ {
			switch rng.Intn(5) {
			case 0, 1:
				data := make([]byte, 1+rng.Intn(500))
				rng.Read(data)
				id, _, err := s.Put(data)
				if err != nil {
					return false
				}
				live[id] = data
			case 2:
				for id := range live {
					if _, err := s.Delete(id); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			case 3:
				if _, err := s.Flush(); err != nil {
					return false
				}
			case 4:
				if crashed < 2 { // within parity budget
					// Crash, then immediately recover and restart to restore budget.
					if _, err := s.Flush(); err != nil {
						return false
					}
					node := fmt.Sprintf("mem%d", rng.Intn(7))
					if err := fab.Crash(node); err != nil {
						return false
					}
					crashed++
					if _, _, err := s.Recover(); err != nil {
						return false
					}
					if err := fab.Restart(node); err != nil {
						return false
					}
					crashed--
				}
			}
		}
		for id, want := range live {
			got, _, err := s.Get(id)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// BenchmarkReplicatedPut is the steady state of a checkpoint in the store the
// serving default builds (3 nodes, 2 replicas): put a payload of the
// repository benchmark's median checkpoint size (5 697 B on seed 42), delete
// it, as a task's snapshot is written and then forgotten with its job. The
// fabric holds one object at a time, so the number does not drift with b.N;
// gated in bench-smoke on ns/op, allocs/op and B/op, where one payload-sized
// buffer per operation would show as a fifty-fold rise.
func BenchmarkReplicatedPut(b *testing.B) {
	const payloadBytes = 5697
	f := fabricWithNodes(b, 3, 1<<28)
	s, err := NewReplicatedStore(f, 2)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, payloadBytes)
	b.SetBytes(payloadBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := s.Put(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasurePut(b *testing.B) {
	f := fabricWithNodes(b, 6, 1<<34)
	s, err := NewErasureStore(f, ErasureConfig{Data: 4, Parity: 2, SpanSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Put(payload); err != nil {
			b.Fatal(err)
		}
	}
}
