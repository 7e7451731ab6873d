// Package coherence simulates a directory-based MESI protocol over the
// cache lines of shared Memory Regions. The paper's ownership model (§2.2)
// rests on a cost asymmetry: exclusively-owned memory needs no coherence
// traffic, while shared ownership "puts additional requirements on the
// Memory Region, i.e., being cache-coherent or having strict memory
// ordering". This package makes that cost concrete and measurable.
//
// Each sharer (a compute device's cache) holds lines in Modified, Exclusive,
// Shared, or Invalid state. A home directory tracks, per line, the current
// sharers and the single writer if any. Reads and writes return the protocol
// actions taken (directory lookup, invalidations, writebacks, data fetches),
// which the region layer converts into simulated time.
package coherence

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/allocator"
)

// State is a MESI cache-line state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the state's letter.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// LineID identifies a cache line: a region and a line index within it.
type LineID struct {
	Region uint64
	Line   uint64
}

// Actions counts the protocol work one access caused; the region layer
// prices each kind of action.
type Actions struct {
	DirectoryLookups int // home-directory consultations
	Invalidations    int // sharer caches invalidated
	Writebacks       int // dirty lines flushed to the home node
	Fetches          int // data transfers into the requesting cache
	Hits             int // served entirely from the local cache
}

// Add accumulates b into a.
func (a *Actions) Add(b Actions) {
	a.DirectoryLookups += b.DirectoryLookups
	a.Invalidations += b.Invalidations
	a.Writebacks += b.Writebacks
	a.Fetches += b.Fetches
	a.Hits += b.Hits
}

// Total returns the number of non-hit protocol actions.
func (a Actions) Total() int {
	return a.DirectoryLookups + a.Invalidations + a.Writebacks + a.Fetches
}

// Dev is a device's index in a directory's sharer sets, interned from its
// name the first time the directory sees it. The zero Dev is no device: what
// a caller of Access holds before its first access has resolved the name.
type Dev int32

// table is the directory's state for one region: its lines, densely, up to
// the highest one touched, in one recycled buffer. A line is a value — MESI
// lets Modified and Exclusive have exactly one holder and makes every holder
// of any other line Shared, so one state and the set of holding devices are
// the whole of it: a State byte, then width bytes of sharer set in which bit
// d is device d. The zero table has no lines.
type table struct {
	buf   []byte
	width int
}

// line returns line l of the table, nil past the lines it has.
func (t table) line(l uint64) []byte {
	if n := uint64(1 + t.width); (l+1)*n <= uint64(len(t.buf)) {
		return t.buf[l*n:][:n]
	}
	return nil
}

// has reports whether dev is in a line's sharer set. Nobody is in a line the
// table does not have, and the zero Dev — a name never interned — in none.
func has(line []byte, dev Dev) bool {
	i := 1 + int(dev)>>3
	return i < len(line) && line[i]>>(dev&7)&1 != 0
}

// sharers counts the devices in a line's sharer set.
func sharers(line []byte) (n int) {
	for i := 1; i < len(line); i++ {
		n += bits.OnesCount8(line[i])
	}
	return n
}

// Directory is the home directory for a set of coherent lines. It is safe
// for concurrent use; each access is serialized through the directory lock,
// mirroring a real home node's ordering point.
type Directory struct {
	mu sync.Mutex
	// lines holds the tracked lines region by region, so that dropping a
	// region costs the lines it has, not the lines there are.
	lines map[uint64]table
	devs  map[string]Dev
	// spare keeps the buffers of dropped regions' tables for the next regions
	// that start sharing: a serving job shares a few regions while it runs
	// and drops them all, and tracks their lines in the memory the job
	// before it left.
	spare allocator.BufList
	stats Actions
}

// spareBytes bounds the spare table buffers: the lines of 16 MiB of regions
// shared by up to seven devices.
const spareBytes = 1 << 20

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{lines: make(map[uint64]table), devs: make(map[string]Dev),
		spare: allocator.BufList{Limit: spareBytes}}
}

// table returns the table of a region, tracking the region from now on, with
// room for line last and device dev. A table is made as wide as the devices
// seen so far need, so it is rebuilt for width only when a new one joins.
func (d *Directory) table(region, last uint64, dev Dev) table {
	t, ok := d.lines[region]
	if !ok {
		t.width = len(d.devs)>>3 + 1
	}
	if t.line(last) != nil && int(dev)>>3 < t.width {
		return t
	}
	nt := table{width: max(t.width, int(dev)>>3+1)}
	lines := max(last+1, uint64(len(t.buf)/(1+t.width)))
	nt.buf = d.spare.Get(allocator.BlockSize(int64(lines)*int64(1+nt.width)), true)
	for l := uint64(0); t.line(l) != nil; l++ {
		copy(nt.line(l), t.line(l))
	}
	d.spare.Put(t.buf)
	d.lines[region] = nt
	return nt
}

// Access performs one coherent access by the named device, a read or a write
// of lines first through last of a region, under one acquisition of the
// directory lock, and returns the protocol actions taken over all the lines.
// The caller keeps *at between its accesses by that device, zero before the
// first, so that only the first looks the name up.
func (d *Directory) Access(name string, at *Dev, region, first, last uint64, write bool) Actions {
	d.mu.Lock()
	defer d.mu.Unlock()
	if *at == 0 {
		if *at = d.devs[name]; *at == 0 {
			*at = Dev(len(d.devs) + 1)
			d.devs[name] = *at
		}
	}
	dev := *at
	t := d.table(region, last, dev)
	var a Actions
	for l := first; l <= last; l++ {
		line := t.line(l)
		st, held := State(line[0]), has(line, dev)
		if held && (!write || st != Shared) {
			// A hit; the one holder's write is at most a silent upgrade E→M.
			if write {
				line[0] = byte(Modified)
			}
			a.Hits++
			continue
		}
		// A miss consults the directory: a dirty copy elsewhere writes back,
		// and the line is fetched unless its writer was already sharing it.
		a.DirectoryLookups++
		if st == Modified {
			a.Writebacks++
		}
		if !held {
			a.Fetches++
		}
		switch {
		case write: // every other sharer is invalidated
			a.Invalidations += sharers(line)
			if held {
				a.Invalidations--
			}
			clear(line)
			line[0] = byte(Modified)
		case st == Invalid:
			line[0] = byte(Exclusive)
		default: // whoever held the line ends up sharing it
			line[0] = byte(Shared)
		}
		line[1+dev>>3] |= 1 << (dev & 7)
	}
	d.stats.Add(a)
	return a
}

// Read performs a coherent read of a line by device dev and returns the
// protocol actions taken.
func (d *Directory) Read(dev string, id LineID) Actions {
	return d.Access(dev, new(Dev), id.Region, id.Line, id.Line, false)
}

// Write performs a coherent write of a line by device dev.
func (d *Directory) Write(dev string, id LineID) Actions {
	return d.Access(dev, new(Dev), id.Region, id.Line, id.Line, true)
}

// DropRegion forgets all lines of a region (region freed). Dirty lines are
// counted as writebacks.
func (d *Directory) DropRegion(region uint64) (a Actions) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.lines[region]
	if !ok {
		return a
	}
	for l := uint64(0); t.line(l) != nil; l++ {
		if State(t.line(l)[0]) == Modified {
			a.Writebacks++
		}
	}
	delete(d.lines, region)
	d.spare.Put(t.buf)
	d.stats.Add(a)
	return a
}

// Stats returns cumulative protocol actions.
func (d *Directory) Stats() Actions {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// CheckInvariants validates the single-writer-multiple-reader discipline as
// the tables encode it: a Modified or Exclusive line has exactly one holder,
// a Shared line at least one, an Invalid line none.
func (d *Directory) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for region, t := range d.lines {
		for l := uint64(0); t.line(l) != nil; l++ {
			st, n := State(t.line(l)[0]), sharers(t.line(l))
			if (st == Invalid) != (n == 0) || (st == Modified || st == Exclusive) && n != 1 {
				return fmt.Errorf("coherence: line %v is %s with %d holders", LineID{Region: region, Line: l}, st, n)
			}
		}
	}
	return nil
}
