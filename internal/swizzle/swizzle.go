// Package swizzle implements the remotable-pointer machinery the paper's
// challenge 1-3 discussion cites ([37] LeanStore, [48] AIFM, [62] Carbink):
// pointer tagging to track the hotness of objects, and pointer swizzling —
// rewriting a pointer to target a local copy when the object is promoted
// from far memory, or a remote descriptor when it is demoted.
//
// A TaggedPtr packs location, a saturating hotness counter, and the object's
// storage coordinates into one 64-bit word, exactly as systems with raw
// pointers do; here the word lives in a pointer table the Heap owns (Go has
// no mutable raw pointers, so handles are stable object IDs and the tagged
// word is what gets swizzled — the data structure and its costs are the
// same).
package swizzle

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// TaggedPtr is a 64-bit tagged, remotable pointer:
//
//	bit  63    : 1 = remote (unswizzled), 0 = local (swizzled)
//	bits 48..62: 15-bit saturating hotness counter
//	bits 0..47 : 48-bit location (local arena offset or remote slot)
type TaggedPtr uint64

const (
	remoteBit   = uint64(1) << 63
	hotShift    = 48
	hotMask     = uint64(0x7fff) << hotShift
	locMask     = (uint64(1) << 48) - 1
	hotSaturate = 0x7fff
)

// Remote reports whether the pointer targets far memory.
func (p TaggedPtr) Remote() bool { return uint64(p)&remoteBit != 0 }

// Hotness returns the access counter.
func (p TaggedPtr) Hotness() int { return int((uint64(p) & hotMask) >> hotShift) }

// Loc returns the 48-bit location field.
func (p TaggedPtr) Loc() uint64 { return uint64(p) & locMask }

// withHotness returns p with the counter replaced.
func (p TaggedPtr) withHotness(h int) TaggedPtr {
	if h < 0 {
		h = 0
	}
	if h > hotSaturate {
		h = hotSaturate
	}
	return TaggedPtr(uint64(p)&^hotMask | uint64(h)<<hotShift)
}

// makePtr assembles a pointer.
func makePtr(remote bool, hot int, loc uint64) TaggedPtr {
	v := loc & locMask
	if remote {
		v |= remoteBit
	}
	return TaggedPtr(v).withHotness(hot)
}

// String renders the pointer for diagnostics.
func (p TaggedPtr) String() string {
	where := "local"
	if p.Remote() {
		where = "remote"
	}
	return fmt.Sprintf("%s@%d(hot=%d)", where, p.Loc(), p.Hotness())
}

// ObjID is a stable object handle; the tagged pointer behind it moves.
type ObjID uint64

// Errors.
var (
	ErrNoObject = errors.New("swizzle: unknown object")
	ErrNoSpace  = errors.New("swizzle: local arena full")
)

// Config tunes the heap.
type Config struct {
	LocalCapacity int64 // bytes of fast local memory
	PromoteAt     int   // hotness that triggers promotion, default 4
}

// The two tiers' virtual access latencies, and the hotness decay: every
// counter is halved by each sweep.
const (
	localLatency  = 100 * time.Nanosecond
	remoteLatency = 3 * time.Microsecond
	decayShift    = 1
)

// Heap is a two-tier object heap: a bounded local arena and unbounded far
// memory, with hotness-driven migration. All durations are virtual.
type Heap struct {
	mu      sync.Mutex
	cfg     Config
	ptrs    map[ObjID]TaggedPtr
	local   map[uint64][]byte // local arena: loc → bytes
	remote  map[uint64][]byte // far memory: slot → bytes
	nextObj ObjID
	nextLoc uint64
	used    int64

	promotions, demotions uint64
	localHits, remoteHits uint64
}

// NewHeap builds a heap.
func NewHeap(cfg Config) (*Heap, error) {
	if cfg.LocalCapacity <= 0 {
		return nil, fmt.Errorf("swizzle: local capacity %d", cfg.LocalCapacity)
	}
	if cfg.PromoteAt <= 0 {
		cfg.PromoteAt = 4
	}
	return &Heap{
		cfg:    cfg,
		ptrs:   make(map[ObjID]TaggedPtr),
		local:  make(map[uint64][]byte),
		remote: make(map[uint64][]byte),
	}, nil
}

// Alloc stores a new object, locally if it fits, else in far memory.
func (h *Heap) Alloc(data []byte) (ObjID, error) {
	if len(data) == 0 {
		return 0, errors.New("swizzle: empty object")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.nextObj
	h.nextObj++
	buf := append([]byte(nil), data...)
	loc := h.nextLoc
	h.nextLoc++
	if h.used+int64(len(buf)) <= h.cfg.LocalCapacity {
		h.local[loc] = buf
		h.used += int64(len(buf))
		h.ptrs[id] = makePtr(false, 0, loc)
	} else {
		h.remote[loc] = buf
		h.ptrs[id] = makePtr(true, 0, loc)
	}
	return id, nil
}

// Access dereferences the object: it returns the bytes, the virtual access
// latency (local vs remote), and bumps the hotness tag.
func (h *Heap) Access(id ObjID) ([]byte, time.Duration, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.ptrs[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrNoObject, id)
	}
	h.ptrs[id] = p.withHotness(p.Hotness() + 1)
	if p.Remote() {
		h.remoteHits++
		return h.remote[p.Loc()], remoteLatency, nil
	}
	h.localHits++
	return h.local[p.Loc()], localLatency, nil
}

// Sweep runs one migration epoch, the background work AIFM/Carbink perform:
// hot remote objects are promoted (swizzled in), evicting the coldest local
// objects if space is needed (unswizzled out); afterwards every counter
// decays. Returns (promoted, demoted, virtual time) — each migration pays
// one remote access.
func (h *Heap) Sweep() (int, int, time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var promoted, demoted int
	var cost time.Duration

	// Candidates: remote objects at/above the promotion threshold, hottest
	// first (deterministic order: hotness desc, then id).
	type cand struct {
		id ObjID
		p  TaggedPtr
	}
	var hot []cand
	for id, p := range h.ptrs {
		if p.Remote() && p.Hotness() >= h.cfg.PromoteAt {
			hot = append(hot, cand{id, p})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].p.Hotness() != hot[j].p.Hotness() {
			return hot[i].p.Hotness() > hot[j].p.Hotness()
		}
		return hot[i].id < hot[j].id
	})
	for _, c := range hot {
		size := int64(len(h.remote[c.p.Loc()]))
		if size > h.cfg.LocalCapacity {
			continue
		}
		// Evict coldest locals until the object fits.
		for h.used+size > h.cfg.LocalCapacity {
			vid, ok := h.coldestLocal(c.p.Hotness())
			if !ok {
				break
			}
			vp := h.ptrs[vid]
			buf := h.local[vp.Loc()]
			delete(h.local, vp.Loc())
			h.used -= int64(len(buf))
			h.remote[vp.Loc()] = buf
			h.ptrs[vid] = makePtr(true, vp.Hotness(), vp.Loc())
			demoted++
			cost += remoteLatency
		}
		if h.used+size > h.cfg.LocalCapacity {
			continue // nothing colder to evict
		}
		buf := h.remote[c.p.Loc()]
		delete(h.remote, c.p.Loc())
		h.local[c.p.Loc()] = buf
		h.used += size
		h.ptrs[c.id] = makePtr(false, c.p.Hotness(), c.p.Loc())
		promoted++
		cost += remoteLatency
	}
	// Decay all counters.
	for id, p := range h.ptrs {
		h.ptrs[id] = p.withHotness(p.Hotness() >> decayShift)
	}
	h.promotions += uint64(promoted)
	h.demotions += uint64(demoted)
	return promoted, demoted, cost
}

// coldestLocal returns the local object with the lowest hotness strictly
// below limit. Caller holds the lock.
func (h *Heap) coldestLocal(limit int) (ObjID, bool) {
	best := ObjID(0)
	bestHot := limit
	found := false
	// Deterministic: lowest (hotness, id).
	ids := make([]ObjID, 0, len(h.ptrs))
	for id, p := range h.ptrs {
		if !p.Remote() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := h.ptrs[id]
		if p.Hotness() < bestHot {
			best, bestHot, found = id, p.Hotness(), true
		}
	}
	return best, found
}

// Stats reports migration and hit counters.
type Stats struct {
	Promotions, Demotions uint64
	LocalHits, RemoteHits uint64
	LocalBytes            int64
	LocalObjects          int
	RemoteObjects         int
}

// Stats returns a snapshot.
func (h *Heap) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		Promotions: h.promotions, Demotions: h.demotions,
		LocalHits: h.localHits, RemoteHits: h.remoteHits,
		LocalBytes: h.used, LocalObjects: len(h.local), RemoteObjects: len(h.remote),
	}
}
