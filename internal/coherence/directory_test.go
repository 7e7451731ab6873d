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

// refDirectory is the protocol written the obvious way — per line, a map from
// device to its state — and the reference the tables are checked against: the
// implementation Directory had before its lines became values.
type refDirectory struct {
	lines map[LineID]map[string]State // Invalid entries elided
	stats Actions
}

func (d *refDirectory) line(id LineID) map[string]State {
	if d.lines[id] == nil {
		d.lines[id] = make(map[string]State)
	}
	return d.lines[id]
}

func (d *refDirectory) Read(dev string, id LineID) (a Actions) {
	defer func() { d.stats.Add(a) }()
	ls := d.line(id)
	if ls[dev] != Invalid {
		a.Hits++
		return a
	}
	a.DirectoryLookups++
	for other, st := range ls {
		if st == Modified {
			a.Writebacks++
		}
		ls[other] = Shared
	}
	a.Fetches++
	ls[dev] = Shared
	if len(ls) == 1 {
		ls[dev] = Exclusive
	}
	return a
}

func (d *refDirectory) Write(dev string, id LineID) (a Actions) {
	defer func() { d.stats.Add(a) }()
	ls := d.line(id)
	if st := ls[dev]; st == Modified || st == Exclusive {
		ls[dev] = Modified // silent upgrade E→M
		a.Hits++
		return a
	}
	a.DirectoryLookups++
	for other, st := range ls {
		if other == dev {
			continue
		}
		if st == Modified {
			a.Writebacks++
		}
		a.Invalidations++
		delete(ls, other)
	}
	if ls[dev] != Shared {
		a.Fetches++
	}
	ls[dev] = Modified
	return a
}

func (d *refDirectory) Evict(dev string, id LineID) (a Actions) {
	defer func() { d.stats.Add(a) }()
	if d.lines[id][dev] == Modified {
		a.Writebacks++
	}
	delete(d.lines[id], dev)
	return a
}

func (d *refDirectory) DropRegion(region uint64) (a Actions) {
	defer func() { d.stats.Add(a) }()
	for id, ls := range d.lines {
		if id.Region != region {
			continue
		}
		for _, st := range ls {
			if st == Modified {
				a.Writebacks++
			}
		}
		delete(d.lines, id)
	}
	return a
}

// step is one directory call of the differential tests.
type step struct {
	kind byte // 'R', 'W', 'E' or 'D'
	dev  string
	id   LineID
	nth  int // dev's place in the test's list of devices
}

func (s step) String() string {
	if s.kind == 'D' {
		return fmt.Sprintf("D(%d)", s.id.Region)
	}
	return fmt.Sprintf("%c(%s,%d.%d)", s.kind, s.dev, s.id.Region, s.id.Line)
}

// twin is a Directory and the reference model driven by the same calls.
type twin struct {
	d   *Directory
	ref *refDirectory
}

func newTwin() twin {
	return twin{NewDirectory(), &refDirectory{lines: make(map[LineID]map[string]State)}}
}

// call makes one call on both and returns the actions each reports.
func (tw twin) call(s step) (got, want Actions) {
	switch s.kind {
	case 'R':
		return tw.d.Read(s.dev, s.id), tw.ref.Read(s.dev, s.id)
	case 'W':
		return tw.d.Write(s.dev, s.id), tw.ref.Write(s.dev, s.id)
	case 'E':
		return tw.d.Evict(s.dev, s.id), tw.ref.Evict(s.dev, s.id)
	default:
		return tw.d.DropRegion(s.id.Region), tw.ref.DropRegion(s.id.Region)
	}
}

// do makes one call on both and returns how they differ, "" when in nothing:
// the Actions returned, every device's state and the sharer count of every
// line, the cumulative Stats, and the directory's own invariants.
func (tw twin) do(s step, devs []string, ids []LineID) string {
	if got, want := tw.call(s); got != want {
		return fmt.Sprintf("actions %+v, reference %+v", got, want)
	}
	if got, want := tw.d.Stats(), tw.ref.stats; got != want {
		return fmt.Sprintf("stats %+v, reference %+v", got, want)
	}
	for _, id := range ids {
		if got, want := tw.d.Sharers(id), len(tw.ref.lines[id]); got != want {
			return fmt.Sprintf("line %v has %d sharers, reference %d", id, got, want)
		}
		for _, dev := range devs {
			if got, want := tw.d.StateOf(dev, id), tw.ref.lines[id][dev]; got != want {
				return fmt.Sprintf("line %v in %s is %s, reference %s", id, dev, got, want)
			}
		}
	}
	if err := tw.d.CheckInvariants(); err != nil {
		return err.Error()
	}
	return ""
}

// key names everything the directory's future behaviour can depend on: the
// device indexes, the tables as they lie in memory and what the spare list
// holds. The reference's state is a function of the tables', once do has
// found the two agree, and the cumulative stats decide nothing.
func (tw twin) key(devs []string, regions []uint64) string {
	d := tw.d
	var k []byte
	for _, dev := range devs {
		k = append(k, byte(d.devs[dev]))
	}
	for _, region := range regions {
		t := d.lines[region]
		k = append(k, byte(t.width), byte(len(t.buf)))
		k = append(k, t.buf...)
	}
	return string(append(k, byte(d.spare.Held()>>6)))
}

// TestDifferentialExhaustive walks every sequence of Read, Write, Evict and
// DropRegion calls by 3 devices on the 2 lines of each of 2 regions, to depth
// 7, and holds the directory to the reference model after every call.
//
// Two reductions keep that to seconds, and neither leaves a sequence out. Two
// sequences that leave the directory in the same state — device indexes,
// tables, spare list — have the same futures, so each state is expanded once,
// from the first sequence found to reach it. And a device's name is only a
// map key to the directory, which numbers devices as it meets them and cannot
// tell one it has not met from another, so a sequence and the same sequence
// with the devices renamed drive it through the same states: only the
// sequences that meet the devices in list order are walked.
func TestDifferentialExhaustive(t *testing.T) {
	devs := []string{"cpu0", "gpu0", "tpu0"}
	ids := []LineID{{1, 0}, {1, 1}, {2, 0}, {2, 1}}
	regions := []uint64{1, 2}
	steps := []step{{kind: 'D', id: LineID{Region: 1}}, {kind: 'D', id: LineID{Region: 2}}}
	for _, id := range ids {
		for nth, dev := range devs {
			for _, kind := range []byte("RWE") {
				steps = append(steps, step{kind, dev, id, nth})
			}
		}
	}
	depth := 7
	if testing.Short() {
		depth = 5
	}
	replay := func(path []step) twin {
		tw := newTwin()
		for _, p := range path {
			tw.call(p) // checked when it was the last step
		}
		return tw
	}
	seen := map[string]bool{newTwin().key(devs, regions): true}
	frontier := [][]step{nil}
	calls := 0
	for level := 1; level <= depth; level++ {
		var next [][]step
		for _, path := range frontier {
			met := len(replay(path).d.devs)
			for _, s := range steps {
				if s.nth > met {
					continue // a renaming of the sequence that meets devs[met] here
				}
				tw := replay(path)
				calls++
				if diff := tw.do(s, devs, ids); diff != "" {
					t.Fatalf("after %v, %v: %s", path, s, diff)
				}
				if k := tw.key(devs, regions); !seen[k] {
					seen[k] = true
					next = append(next, append(path[:len(path):len(path)], s))
				}
			}
		}
		frontier = next
	}
	t.Logf("depth %d: %d states, %d calls checked", depth, len(seen), calls)
}

// TestWideSharerSet: a line read by more devices than any one width of
// sharer set holds — the table is rebuilt wider as they join — then written
// once invalidates every one of the others.
func TestWideSharerSet(t *testing.T) {
	const n = 150
	devs := make([]string, n)
	for i := range devs {
		devs[i] = fmt.Sprint("node", i, "/cpu0")
	}
	ids := []LineID{{1, 0}, {1, 5}}
	tw := newTwin()
	tw.do(step{kind: 'W', dev: devs[0], id: ids[1]}, devs, ids) // a second line, dirty, to carry through every rebuild
	for _, dev := range devs {
		if diff := tw.do(step{kind: 'R', dev: dev, id: l0}, devs, ids); diff != "" {
			t.Fatalf("read by %s: %s", dev, diff)
		}
	}
	if got := tw.d.Sharers(l0); got != n {
		t.Fatalf("sharers = %d, want %d", got, n)
	}
	if a := tw.d.Write(devs[n-1], l0); a.Invalidations != n-1 || a.Fetches != 0 {
		t.Errorf("write after %d readers: %+v, want %d invalidations and no fetch", n, a, n-1)
	}
	tw.ref.Write(devs[n-1], l0)
	if diff := tw.do(step{kind: 'R', dev: devs[0], id: ids[1]}, devs, ids); diff != "" {
		t.Error(diff)
	}
	if diff := tw.do(step{kind: 'D', id: l0}, devs, ids); diff != "" {
		t.Error(diff)
	}
}

// TestSpareTablesBounded: what the directory keeps of dropped regions is
// bounded in bytes, however large the regions were and however many.
func TestSpareTablesBounded(t *testing.T) {
	d := NewDirectory()
	d.Read("cpu0", LineID{Region: 1, Line: 4 * spareBytes}) // a table several times the bound
	d.DropRegion(1)
	if held := d.spare.Held(); held != 0 {
		t.Errorf("a table larger than the bound left %d bytes behind", held)
	}
	const regions, lines = 64, spareBytes / 32
	for r := uint64(2); r < 2+regions; r++ {
		d.Read("cpu0", LineID{Region: r, Line: lines})
	}
	for r := uint64(2); r < 2+regions; r++ {
		d.DropRegion(r)
	}
	if held := d.spare.Held(); held == 0 || held > spareBytes {
		t.Errorf("%d regions of %d lines left %d bytes behind, want some and at most %d", regions, lines, held, spareBytes)
	}
	if len(d.lines) != 0 {
		t.Errorf("%d regions still tracked", len(d.lines))
	}
}

// BenchmarkDirectoryRange is the directory's share of a shared region's life
// in the serving traffic: two devices each read its 64 lines cold, in one
// access, and it is dropped. After the first regions it allocates nothing.
func BenchmarkDirectoryRange(b *testing.B) {
	d := NewDirectory()
	var cpu, gpu Dev
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		region := uint64(i)
		d.Access("cpu0", &cpu, region, 0, 63, false)
		d.Access("gpu0", &gpu, region, 0, 63, false)
		d.DropRegion(region)
	}
}
