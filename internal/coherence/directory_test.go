package coherence

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

var l0 = LineID{Region: 1, Line: 0}

func TestColdReadIsExclusive(t *testing.T) {
	d := NewDirectory()
	a := d.Read("cpu0", l0)
	if a.Hits != 0 || a.Fetches != 1 || a.DirectoryLookups != 1 {
		t.Errorf("cold read actions = %+v", a)
	}
	if d.StateOf("cpu0", l0) != Exclusive {
		t.Errorf("state = %s, want E", d.StateOf("cpu0", l0))
	}
}

func TestReadHit(t *testing.T) {
	d := NewDirectory()
	d.Read("cpu0", l0)
	a := d.Read("cpu0", l0)
	if a.Hits != 1 || a.Total() != 0 {
		t.Errorf("warm read actions = %+v, want pure hit", a)
	}
}

func TestSecondReaderDemotesToShared(t *testing.T) {
	d := NewDirectory()
	d.Read("cpu0", l0)
	d.Read("gpu0", l0)
	if d.StateOf("cpu0", l0) != Shared || d.StateOf("gpu0", l0) != Shared {
		t.Error("both readers must end Shared")
	}
	if d.Sharers(l0) != 2 {
		t.Errorf("sharers = %d, want 2", d.Sharers(l0))
	}
}

func TestWriteUpgradesExclusiveSilently(t *testing.T) {
	d := NewDirectory()
	d.Read("cpu0", l0)
	a := d.Write("cpu0", l0)
	if a.Hits != 1 || a.Total() != 0 {
		t.Errorf("E→M upgrade must be silent, got %+v", a)
	}
	if d.StateOf("cpu0", l0) != Modified {
		t.Error("writer must hold M")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory()
	d.Read("cpu0", l0)
	d.Read("gpu0", l0)
	d.Read("tpu0", l0)
	a := d.Write("cpu0", l0)
	if a.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", a.Invalidations)
	}
	if d.StateOf("gpu0", l0) != Invalid || d.StateOf("tpu0", l0) != Invalid {
		t.Error("other sharers must be invalidated")
	}
	if d.Sharers(l0) != 1 {
		t.Errorf("sharers = %d, want 1", d.Sharers(l0))
	}
}

func TestReadAfterRemoteWriteForcesWriteback(t *testing.T) {
	d := NewDirectory()
	d.Write("cpu0", l0)
	a := d.Read("gpu0", l0)
	if a.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", a.Writebacks)
	}
	if d.StateOf("cpu0", l0) != Shared || d.StateOf("gpu0", l0) != Shared {
		t.Error("after read of dirty line, both hold S")
	}
}

func TestWriteAfterRemoteWrite(t *testing.T) {
	d := NewDirectory()
	d.Write("cpu0", l0)
	a := d.Write("gpu0", l0)
	if a.Writebacks != 1 || a.Invalidations != 1 {
		t.Errorf("M→M migration actions = %+v", a)
	}
	if d.StateOf("cpu0", l0) != Invalid || d.StateOf("gpu0", l0) != Modified {
		t.Error("ownership must migrate")
	}
}

func TestEvict(t *testing.T) {
	d := NewDirectory()
	d.Write("cpu0", l0)
	a := d.Evict("cpu0", l0)
	if a.Writebacks != 1 {
		t.Errorf("dirty evict writebacks = %d, want 1", a.Writebacks)
	}
	if d.StateOf("cpu0", l0) != Invalid {
		t.Error("evicted line must be Invalid")
	}
	// Clean evict and evict of unknown line are free.
	d.Read("cpu0", l0)
	d.Read("gpu0", l0)
	if a := d.Evict("cpu0", l0); a.Writebacks != 0 {
		t.Error("clean evict must not write back")
	}
	if a := d.Evict("cpu0", LineID{9, 9}); a.Total() != 0 {
		t.Error("evicting an untracked line is free")
	}
}

func TestDropRegion(t *testing.T) {
	d := NewDirectory()
	d.Write("cpu0", LineID{1, 0})
	d.Write("cpu0", LineID{1, 1})
	d.Read("gpu0", LineID{2, 0})
	a := d.DropRegion(1)
	if a.Writebacks != 2 {
		t.Errorf("dropping 2 dirty lines: writebacks = %d", a.Writebacks)
	}
	if d.Sharers(LineID{1, 0}) != 0 || d.Sharers(LineID{1, 1}) != 0 {
		t.Error("region 1 lines must be forgotten")
	}
	if d.Sharers(LineID{2, 0}) != 1 {
		t.Error("region 2 must be untouched")
	}
	// A region the directory never tracked, or already dropped, has nothing
	// to write back and changes no count.
	before := d.Stats()
	if a := d.DropRegion(1); a != (Actions{}) {
		t.Errorf("second drop of region 1 = %+v, want nothing", a)
	}
	if a := d.DropRegion(77); a != (Actions{}) {
		t.Errorf("drop of a never-shared region = %+v, want nothing", a)
	}
	if d.Stats() != before {
		t.Errorf("empty drops moved the stats: %+v → %+v", before, d.Stats())
	}
}

// BenchmarkDropRegion: a drop costs the lines of the region dropped — none,
// for the never-shared region most frees and migrations drop — whatever the
// number of other regions' lines the directory tracks.
func BenchmarkDropRegion(b *testing.B) {
	for _, live := range []int{0, 1 << 16} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			d := NewDirectory()
			for i := 0; i < live; i++ {
				d.Read("cpu0", LineID{Region: uint64(1 + i%64), Line: uint64(i / 64)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.DropRegion(1 << 40)
			}
		})
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := NewDirectory()
	d.Read("a", l0)
	d.Write("b", l0)
	d.Read("a", l0)
	s := d.Stats()
	if s.Total() == 0 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// Property: under any access interleaving, the directory never violates
// single-writer and the invariant checker passes.
func TestProtocolInvariantsProperty(t *testing.T) {
	devs := []string{"cpu0", "cpu1", "gpu0", "tpu0"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory()
		for i := 0; i < 500; i++ {
			dev := devs[rng.Intn(len(devs))]
			id := LineID{Region: uint64(rng.Intn(3)), Line: uint64(rng.Intn(8))}
			switch rng.Intn(4) {
			case 0, 1:
				d.Read(dev, id)
			case 2:
				d.Write(dev, id)
			case 3:
				d.Evict(dev, id)
			}
			if d.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: write counts — a write by one device followed by reads from k
// others then a write again invalidates exactly k sharers.
func TestInvalidationCountProperty(t *testing.T) {
	f := func(k uint8) bool {
		n := int(k%6) + 1
		d := NewDirectory()
		d.Write("w", l0)
		for i := 0; i < n; i++ {
			d.Read(devName(i), l0)
		}
		a := d.Write("w", l0)
		return a.Invalidations == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func devName(i int) string { return string(rune('a'+i)) + "dev" }

func TestConcurrentSafety(t *testing.T) {
	d := NewDirectory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := devName(g)
			for i := 0; i < 500; i++ {
				id := LineID{Region: 1, Line: uint64(i % 16)}
				if i%3 == 0 {
					d.Write(dev, id)
				} else {
					d.Read(dev, id)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state letters wrong")
	}
}

func BenchmarkReadHit(b *testing.B) {
	d := NewDirectory()
	d.Read("cpu0", l0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read("cpu0", l0)
	}
}

func BenchmarkWriteContention(b *testing.B) {
	d := NewDirectory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			d.Write("cpu0", l0)
		} else {
			d.Write("gpu0", l0)
		}
	}
}
