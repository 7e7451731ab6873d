package swizzle

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func newHeap(t *testing.T, localCap int64) *Heap {
	t.Helper()
	h, err := NewHeap(Config{LocalCapacity: localCap})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTaggedPtrPacking(t *testing.T) {
	p := makePtr(true, 123, 0xdeadbeef)
	if !p.Remote() || p.Hotness() != 123 || p.Loc() != 0xdeadbeef {
		t.Errorf("packing broken: %s", p)
	}
	p = makePtr(false, 0, 0)
	if p.Remote() || p.Hotness() != 0 || p.Loc() != 0 {
		t.Error("zero pointer broken")
	}
}

func TestTaggedPtrHotnessSaturates(t *testing.T) {
	p := makePtr(false, hotSaturate, 1)
	p = p.withHotness(p.Hotness() + 1)
	if p.Hotness() != hotSaturate {
		t.Errorf("hotness must saturate at %d, got %d", hotSaturate, p.Hotness())
	}
	p = p.withHotness(-5)
	if p.Hotness() != 0 {
		t.Error("hotness must clamp at 0")
	}
}

// Property: packing round-trips all fields for any input.
func TestTaggedPtrRoundtripProperty(t *testing.T) {
	f := func(remote bool, hot uint16, loc uint64) bool {
		h := int(hot) % (hotSaturate + 1)
		l := loc & locMask
		p := makePtr(remote, h, l)
		return p.Remote() == remote && p.Hotness() == h && p.Loc() == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAllocSpillsToRemote(t *testing.T) {
	h := newHeap(t, 100)
	a, err := h.Alloc(make([]byte, 60))
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(make([]byte, 60)) // doesn't fit locally anymore
	if err != nil {
		t.Fatal(err)
	}
	pa := h.ptrs[a]
	pb := h.ptrs[b]
	if pa.Remote() {
		t.Error("first object must be local")
	}
	if !pb.Remote() {
		t.Error("overflow object must be remote")
	}
}

func TestAccessCostsAndHotness(t *testing.T) {
	h := newHeap(t, 100)
	local, _ := h.Alloc([]byte("near"))
	remote, _ := h.Alloc(make([]byte, 200)) // forced remote
	_, dLocal, err := h.Access(local)
	if err != nil {
		t.Fatal(err)
	}
	_, dRemote, err := h.Access(remote)
	if err != nil {
		t.Fatal(err)
	}
	if dRemote <= dLocal {
		t.Errorf("remote access (%v) must cost more than local (%v)", dRemote, dLocal)
	}
	p := h.ptrs[local]
	if p.Hotness() != 1 {
		t.Errorf("hotness after one access = %d, want 1", p.Hotness())
	}
}

func TestAccessReturnsData(t *testing.T) {
	h := newHeap(t, 1000)
	id, _ := h.Alloc([]byte("payload"))
	got, _, err := h.Access(id)
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Access = %q, %v", got, err)
	}
}

func TestUnknownObjectErrors(t *testing.T) {
	h := newHeap(t, 100)
	if _, _, err := h.Access(99); !errors.Is(err, ErrNoObject) {
		t.Error("access of unknown object must fail")
	}
	if _, err := h.Alloc(nil); err == nil {
		t.Error("empty alloc must fail")
	}
	if _, err := NewHeap(Config{}); err == nil {
		t.Error("zero local capacity must fail")
	}
}

func TestSweepPromotesHotRemote(t *testing.T) {
	h, err := NewHeap(Config{LocalCapacity: 64, PromoteAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := h.Alloc(make([]byte, 60)) // local
	hot, _ := h.Alloc(make([]byte, 60))  // remote
	for i := 0; i < 5; i++ {
		if _, _, err := h.Access(hot); err != nil {
			t.Fatal(err)
		}
	}
	promoted, demoted, cost := h.Sweep()
	if promoted != 1 || demoted != 1 {
		t.Errorf("sweep = %d promoted / %d demoted, want 1/1", promoted, demoted)
	}
	if cost <= 0 {
		t.Error("migrations must cost time")
	}
	ph := h.ptrs[hot]
	pc := h.ptrs[cold]
	if ph.Remote() {
		t.Error("hot object must be swizzled local")
	}
	if !pc.Remote() {
		t.Error("cold object must be unswizzled remote")
	}
	// Data survives migration.
	data, _, err := h.Access(hot)
	if err != nil || len(data) != 60 {
		t.Errorf("promoted object unreadable: %v", err)
	}
}

func TestSweepDecaysHotness(t *testing.T) {
	h := newHeap(t, 1000)
	id, _ := h.Alloc([]byte("x"))
	for i := 0; i < 8; i++ {
		h.Access(id)
	}
	h.Sweep()
	p := h.ptrs[id]
	if p.Hotness() != 4 {
		t.Errorf("hotness after decay = %d, want 4", p.Hotness())
	}
}

func TestSweepRespectsCapacity(t *testing.T) {
	h, err := NewHeap(Config{LocalCapacity: 100, PromoteAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One local 90-byte object, hot; one remote 200-byte object, hotter —
	// but it can never fit locally.
	local, _ := h.Alloc(make([]byte, 90))
	big, _ := h.Alloc(make([]byte, 200))
	h.Access(local)
	h.Access(local)
	for i := 0; i < 10; i++ {
		h.Access(big)
	}
	h.Sweep()
	pl := h.ptrs[local]
	pb := h.ptrs[big]
	if pb.Remote() == false {
		t.Error("object larger than the arena must stay remote")
	}
	if pl.Remote() {
		t.Error("local object must not be evicted for an unpromotable one")
	}
}

func TestStatsCounting(t *testing.T) {
	h, _ := NewHeap(Config{LocalCapacity: 64, PromoteAt: 1})
	a, _ := h.Alloc(make([]byte, 60))
	b, _ := h.Alloc(make([]byte, 60))
	h.Access(a)
	h.Access(b)
	h.Access(b)
	h.Sweep()
	st := h.Stats()
	if st.LocalHits != 1 || st.RemoteHits != 2 {
		t.Errorf("hits = %d/%d, want 1/2", st.LocalHits, st.RemoteHits)
	}
	if st.Promotions != 1 || st.Demotions != 1 {
		t.Errorf("migrations = %+v", st)
	}
}

// Property: after any access pattern and sweeps, local bytes never exceed
// capacity and every object remains readable with intact length.
func TestHeapInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h, err := NewHeap(Config{LocalCapacity: 512, PromoteAt: 2})
		if err != nil {
			return false
		}
		sizes := map[ObjID]int{}
		var ids []ObjID
		for _, op := range ops {
			switch op % 4 {
			case 0:
				n := int(op%200) + 1
				id, err := h.Alloc(make([]byte, n))
				if err != nil {
					return false
				}
				sizes[id] = n
				ids = append(ids, id)
			case 1, 2:
				if len(ids) > 0 {
					id := ids[int(op)%len(ids)]
					if _, ok := sizes[id]; !ok {
						continue
					}
					data, _, err := h.Access(id)
					if err != nil || len(data) != sizes[id] {
						return false
					}
				}
			case 3:
				h.Sweep()
			}
			if st := h.Stats(); st.LocalBytes > 512 {
				return false
			}
		}
		for id, n := range sizes {
			data, _, err := h.Access(id)
			if err != nil || len(data) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSweepIdempotentWhenCold(t *testing.T) {
	h := newHeap(t, 100)
	h.Alloc(make([]byte, 50))
	h.Alloc(make([]byte, 200))
	p1, d1, _ := h.Sweep() // nothing hot
	if p1 != 0 || d1 != 0 {
		t.Error("cold heap must not migrate")
	}
}

var sinkDur time.Duration

func BenchmarkAccessLocal(b *testing.B) {
	h, _ := NewHeap(Config{LocalCapacity: 1 << 20})
	id, _ := h.Alloc(make([]byte, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d, _ := h.Access(id)
		sinkDur = d
	}
}

func BenchmarkSweep(b *testing.B) {
	h, _ := NewHeap(Config{LocalCapacity: 1 << 16, PromoteAt: 1})
	var ids []ObjID
	for i := 0; i < 1000; i++ {
		id, _ := h.Alloc(make([]byte, 128))
		ids = append(ids, id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(ids[i%len(ids)])
		if i%100 == 0 {
			h.Sweep()
		}
	}
}
