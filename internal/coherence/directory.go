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
	"sync"
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

type lineState struct {
	sharers map[string]State // device → state (Invalid entries elided)
}

// Directory is the home directory for a set of coherent lines. It is
// safe for concurrent use; each line is serialized through the directory
// lock, mirroring a real home node's ordering point.
type Directory struct {
	mu sync.Mutex
	// lines holds the tracked lines region by region, so that dropping a
	// region costs the lines it has, not the lines there are: a region is
	// dropped every time one is freed or migrated, and most were never
	// shared and have none.
	lines map[uint64]map[uint64]*lineState
	// spare keeps the emptied line maps of dropped regions for the next
	// region that starts sharing, so the index costs a serving job — which
	// shares a few regions and drops them all — no allocation of its own.
	spare []map[uint64]*lineState

	stats Actions
}

// spareCap bounds the spare line maps kept.
const spareCap = 32

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{lines: make(map[uint64]map[uint64]*lineState)}
}

// line returns the state of a line, tracking it from now on.
func (d *Directory) line(id LineID) *lineState {
	region := d.lines[id.Region]
	if region == nil {
		if n := len(d.spare); n > 0 {
			region, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			region = make(map[uint64]*lineState)
		}
		d.lines[id.Region] = region
	}
	ls := region[id.Line]
	if ls == nil {
		ls = &lineState{sharers: make(map[string]State)}
		region[id.Line] = ls
	}
	return ls
}

// tracked returns the state of a line if the directory tracks it.
func (d *Directory) tracked(id LineID) (*lineState, bool) {
	ls, ok := d.lines[id.Region][id.Line]
	return ls, ok
}

// Read performs a coherent read of a line by device dev and returns the
// protocol actions taken.
func (d *Directory) Read(dev string, id LineID) Actions {
	d.mu.Lock()
	defer d.mu.Unlock()
	ls := d.line(id)
	var a Actions
	switch ls.sharers[dev] {
	case Modified, Exclusive, Shared:
		a.Hits++
		d.stats.Add(a)
		return a
	}
	// Miss: consult the directory.
	a.DirectoryLookups++
	// If some other cache holds it Modified, it must write back and demote.
	for other, st := range ls.sharers {
		if other == dev {
			continue
		}
		if st == Modified {
			a.Writebacks++
			ls.sharers[other] = Shared
		} else if st == Exclusive {
			ls.sharers[other] = Shared
		}
	}
	a.Fetches++
	if len(ls.sharers) == 0 {
		ls.sharers[dev] = Exclusive
	} else {
		ls.sharers[dev] = Shared
	}
	d.stats.Add(a)
	return a
}

// Write performs a coherent write of a line by device dev.
func (d *Directory) Write(dev string, id LineID) Actions {
	d.mu.Lock()
	defer d.mu.Unlock()
	ls := d.line(id)
	var a Actions
	switch ls.sharers[dev] {
	case Modified:
		a.Hits++
		d.stats.Add(a)
		return a
	case Exclusive:
		// Silent upgrade E→M.
		ls.sharers[dev] = Modified
		a.Hits++
		d.stats.Add(a)
		return a
	}
	a.DirectoryLookups++
	// Invalidate every other sharer; dirty copies write back first.
	for other, st := range ls.sharers {
		if other == dev {
			continue
		}
		if st == Modified {
			a.Writebacks++
		}
		a.Invalidations++
		delete(ls.sharers, other)
	}
	if ls.sharers[dev] != Shared {
		a.Fetches++ // read-for-ownership brings the line in
	}
	ls.sharers[dev] = Modified
	d.stats.Add(a)
	return a
}

// Evict removes dev's copy of a line, writing back if dirty.
func (d *Directory) Evict(dev string, id LineID) Actions {
	d.mu.Lock()
	defer d.mu.Unlock()
	ls, ok := d.tracked(id)
	var a Actions
	if !ok {
		return a
	}
	if st, held := ls.sharers[dev]; held {
		if st == Modified {
			a.Writebacks++
		}
		delete(ls.sharers, dev)
	}
	d.stats.Add(a)
	return a
}

// DropRegion forgets all lines of a region (region freed). Dirty lines are
// counted as writebacks.
func (d *Directory) DropRegion(region uint64) Actions {
	d.mu.Lock()
	defer d.mu.Unlock()
	var a Actions
	lines, ok := d.lines[region]
	if !ok {
		return a
	}
	for _, ls := range lines {
		for _, st := range ls.sharers {
			if st == Modified {
				a.Writebacks++
			}
		}
	}
	delete(d.lines, region)
	if len(d.spare) < spareCap {
		clear(lines)
		d.spare = append(d.spare, lines)
	}
	d.stats.Add(a)
	return a
}

// StateOf reports dev's state for a line (Invalid when absent).
func (d *Directory) StateOf(dev string, id LineID) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	ls, ok := d.tracked(id)
	if !ok {
		return Invalid
	}
	return ls.sharers[dev]
}

// Sharers returns the number of caches holding the line in any valid state.
func (d *Directory) Sharers(id LineID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	ls, ok := d.tracked(id)
	if !ok {
		return 0
	}
	return len(ls.sharers)
}

// Stats returns cumulative protocol actions.
func (d *Directory) Stats() Actions {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// CheckInvariants validates the single-writer-multiple-reader discipline:
// a line in Modified or Exclusive anywhere has exactly one sharer, and
// Shared lines have no Modified/Exclusive holder.
func (d *Directory) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for region, lines := range d.lines {
		for line, ls := range lines {
			id := LineID{Region: region, Line: line}
			var mCount, eCount int
			for _, st := range ls.sharers {
				switch st {
				case Modified:
					mCount++
				case Exclusive:
					eCount++
				case Invalid:
					return fmt.Errorf("coherence: line %v tracks an Invalid sharer", id)
				}
			}
			if mCount > 1 {
				return fmt.Errorf("coherence: line %v has %d writers", id, mCount)
			}
			if eCount > 1 {
				return fmt.Errorf("coherence: line %v has %d exclusive holders", id, eCount)
			}
			if (mCount == 1 || eCount == 1) && len(ls.sharers) != 1 {
				return fmt.Errorf("coherence: line %v mixes M/E with other sharers", id)
			}
		}
	}
	return nil
}
