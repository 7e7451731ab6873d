package region

import (
	"bytes"
	"testing"

	"repro/internal/props"
)

// A recycled backing is cleared at its region's first touch, not at Alloc.
// These tests give a region a backing its last user filled with 0xa5 and
// check that every path that touches the payload first sees zeros, and that
// a region nobody touches is never cleared.

const firstTouchSize = 4096

var (
	// localSpec is a scratch region in the CPU's local memory.
	localSpec = Spec{Name: "local", Class: props.PrivateScratch, Size: firstTouchSize, Owner: "t", Compute: "node0/cpu0"}
	// farSpec is a region on the memory node, reached asynchronously.
	farSpec = Spec{
		Name: "far", Class: props.Custom, Size: firstTouchSize, Owner: "t", Compute: "node0/cpu0",
		Req:    props.Requirements{Latency: props.LatencyHigh, ByteAddr: props.Require},
		Device: "memnode0/far0",
	}
	// sealedSpec is farSpec made confidential: sealed on the memory node.
	sealedSpec = func() Spec {
		s := farSpec
		s.Name, s.Req.Confidential = "sealed", true
		return s
	}()
)

// recycled allocates spec twice: the first region writes 0xa5 over all of
// its backing and is released, and the second, which it returns, takes that
// backing back dirty.
func recycled(t *testing.T, m *Manager, spec Spec) *Handle {
	t.Helper()
	h := mustAlloc(t, m, spec)
	if f := h.WriteAsync(0, 0, bytes.Repeat([]byte{0xa5}, int(spec.Size))); f.err != nil {
		t.Fatal(f.err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	held := m.backing.Held()
	h = mustAlloc(t, m, spec)
	if m.backing.Held() >= held || !isDirty(h) {
		t.Fatal("the second region did not take the first one's backing dirty")
	}
	return h
}

// isDirty reports whether h's region still holds an uncleared recycled
// backing.
func isDirty(h *Handle) bool {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.r.flags.has(flagDirty)
}

// readAll reads all of h's region, asynchronously, so any device serves.
func readAll(t *testing.T, h *Handle) []byte {
	t.Helper()
	got := make([]byte, firstTouchSize)
	if f := h.ReadAsync(0, 0, got); f.err != nil {
		t.Fatal(f.err)
	}
	return got
}

func TestFirstTouchReadsZeros(t *testing.T) {
	zeros := make([]byte, firstTouchSize)
	t.Run("ReadAt", func(t *testing.T) {
		m := newManager(t)
		h := recycled(t, m, localSpec)
		got := make([]byte, firstTouchSize)
		if _, err := h.ReadAt(0, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zeros) {
			t.Error("a first ReadAt shows the last region's bytes")
		}
	})
	t.Run("ReadAsync", func(t *testing.T) {
		m := newManager(t)
		if got := readAll(t, recycled(t, m, farSpec)); !bytes.Equal(got, zeros) {
			t.Error("a first ReadAsync shows the last region's bytes")
		}
	})
	t.Run("partial Hydrate", func(t *testing.T) {
		m := newManager(t)
		h := recycled(t, m, localSpec)
		payload := []byte("restored from a checkpoint")
		if err := h.Hydrate(1024, payload); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, firstTouchSize)
		copy(want[1024:], payload)
		if got := readAll(t, h); !bytes.Equal(got, want) {
			t.Error("the bytes a partial Hydrate left alone are not zeros")
		}
	})
	t.Run("migration across the seal boundary", func(t *testing.T) {
		// A confidential region unsealed in local memory moved to the memory
		// node, and one sealed there moved home, each before its first write,
		// read zeros, whether its backing was recycled or fresh.
		for _, c := range []struct {
			from, to   string
			wantSealed bool
		}{{"node0/dram0", "memnode0/far0", true}, {"memnode0/far0", "node0/dram0", false}} {
			spec := sealedSpec
			spec.Device = c.from
			for _, backing := range []string{"recycled", "fresh"} {
				m := newManager(t)
				h := mustAlloc(t, m, spec)
				if backing == "recycled" {
					h = recycled(t, m, spec)
				}
				r := h.r
				m.mu.Lock()
				r.mu.Lock()
				_, err := m.migrateToLocked(r, "node0/cpu0", c.to, 0, clockOf(m))
				sealed := r.mflags.has(flagSealed)
				r.mu.Unlock()
				m.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				if sealed != c.wantSealed {
					t.Fatalf("%s → %s: sealed %v, want %v", c.from, c.to, sealed, c.wantSealed)
				}
				if got := readAll(t, h); !bytes.Equal(got, zeros) {
					t.Errorf("%s → %s: a %s backing migrated unwritten does not read zeros", c.from, c.to, backing)
				}
			}
		}
	})
	t.Run("sealed", func(t *testing.T) {
		// A fresh confidential region on the memory node is sealed, and reads
		// zeros, not the keystream, until it is written: through ReadAsync,
		// and around a partial Hydrate, whose bytes it stores sealed.
		m := newManager(t)
		h := mustAlloc(t, m, sealedSpec)
		if sealed, _ := h.Sealed(); !sealed {
			t.Fatal("a confidential region on the memory node is not sealed")
		}
		if got := readAll(t, h); !bytes.Equal(got, zeros) {
			t.Error("a fresh sealed region's first ReadAsync does not read zeros")
		}
		h = mustAlloc(t, m, sealedSpec)
		payload := []byte("restored from a checkpoint")
		if err := h.Hydrate(1024, payload); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, firstTouchSize)
		copy(want[1024:], payload)
		if got := readAll(t, h); !bytes.Equal(got, want) {
			t.Error("the bytes a partial Hydrate left alone in a sealed region are not zeros")
		}
		if bytes.Contains(h.r.data, payload) {
			t.Error("a sealed region holds hydrated plaintext")
		}
	})
	t.Run("export and recall", func(t *testing.T) {
		m := newManager(t)
		fe := newFakeExporter()
		m.SetExporter(fe)
		h := recycled(t, m, farSpec)
		if s := evictAll(t, m); s.Exported != 1 {
			t.Fatalf("eviction sweep: %+v, want the untouched region exported", s)
		}
		fe.mu.Lock()
		for _, sent := range fe.store {
			if !bytes.Equal(sent, zeros) {
				t.Error("an untouched region exported its backing's old bytes")
			}
		}
		fe.mu.Unlock()
		if got := readAll(t, h); !bytes.Equal(got, zeros) {
			t.Error("an untouched region recalled with its backing's old bytes")
		}
	})
}

// TestUntouchedRegionIsNeverCleared: a region that is allocated, transferred,
// shared and released without a read or a write is never cleared; its
// backing goes back to the free list as its last user left it.
func TestUntouchedRegionIsNeverCleared(t *testing.T) {
	m := newManager(t)
	spec := localSpec
	spec.Class = props.GlobalScratch // transferable and shareable
	h := recycled(t, m, spec)
	data := h.r.data
	moved, _, err := h.Transfer(0, "t2", "node0/cpu0")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := moved.Share("t3", "node0/cpu1")
	if err != nil {
		t.Fatal(err)
	}
	if !isDirty(moved) {
		t.Fatal("a transfer or a share cleared the backing")
	}
	for _, x := range []*Handle{moved, shared} {
		if err := x.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0xa5}, firstTouchSize)) {
		t.Error("the backing of a region nobody touched was cleared")
	}
}
