package fault

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// StripedStore stripes each object across several memory nodes — the
// "striping of memory pages across multiple memory nodes" the paper cites
// from Lee et al. [36]. Striping aggregates fabric bandwidth (chunk
// transfers proceed in parallel, so an object moves at ~width× a single
// node's rate) and optionally mirrors every stripe on a second node set
// for resilience (Mirrors=1 survives one node loss per stripe at 2×
// memory, the middle ground between raw striping and erasure coding).
type StripedStore struct {
	mu     sync.Mutex
	fabric *cluster.Fabric
	width  int // chunks per object
	mirror int // extra full copies of each chunk (0 = none)
	next   ObjectID
	objs   map[ObjectID]*stripedObj
	rr     int
}

type stripedObj struct {
	size   int
	chunks [][]cluster.SlabID // chunks[i] = primary + mirrors of chunk i
}

// StripeConfig tunes the store.
type StripeConfig struct {
	Width   int // default 4
	Mirrors int // default 0
}

// NewStripedStore builds the store.
func NewStripedStore(f *cluster.Fabric, cfg StripeConfig) (*StripedStore, error) {
	if cfg.Width <= 0 {
		cfg.Width = 4
	}
	if cfg.Mirrors < 0 {
		return nil, fmt.Errorf("fault: negative mirror count")
	}
	need := cfg.Width * (1 + cfg.Mirrors)
	if len(f.Nodes()) < need {
		return nil, fmt.Errorf("fault: %d nodes cannot host width %d with %d mirrors", len(f.Nodes()), cfg.Width, cfg.Mirrors)
	}
	return &StripedStore{
		fabric: f, width: cfg.Width, mirror: cfg.Mirrors,
		objs: make(map[ObjectID]*stripedObj),
	}, nil
}

// chunkSpan returns chunk i's byte range for an object of n bytes.
func (s *StripedStore) chunkSpan(n, i int) (int, int) {
	per := (n + s.width - 1) / s.width
	lo := i * per
	hi := lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Put stripes data across width nodes (+ mirrors). Chunk writes fan out in
// parallel: the charged time is the slowest chunk, which is how striping
// buys bandwidth.
func (s *StripedStore) Put(data []byte) (ObjectID, time.Duration, error) {
	if len(data) == 0 {
		return 0, 0, cluster.ErrInvalidInput
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	alive := s.fabric.AliveNodes()
	need := s.width * (1 + s.mirror)
	if len(alive) < need {
		return 0, 0, fmt.Errorf("%w: %d alive, need %d", cluster.ErrUnreachable, len(alive), need)
	}
	obj := &stripedObj{size: len(data), chunks: make([][]cluster.SlabID, s.width)}
	var alloc, maxWrite time.Duration
	for i := 0; i < s.width; i++ {
		lo, hi := s.chunkSpan(len(data), i)
		chunkLen := hi - lo
		if chunkLen == 0 {
			chunkLen = 1 // keep geometry regular for tiny objects
		}
		for m := 0; m <= s.mirror; m++ {
			node := alive[(s.rr+i+m*s.width)%len(alive)]
			slab, d, err := s.fabric.AllocSlab(node, int64(chunkLen))
			alloc += d
			if err != nil {
				s.rollbackStripes(obj)
				return 0, alloc, err
			}
			if hi > lo {
				dw, err := s.fabric.Write(slab, 0, data[lo:hi])
				if dw > maxWrite {
					maxWrite = dw
				}
				if err != nil {
					s.rollbackStripes(obj)
					return 0, alloc, err
				}
			}
			obj.chunks[i] = append(obj.chunks[i], slab)
		}
	}
	s.rr = (s.rr + 1) % len(alive)
	id := s.next
	s.next++
	s.objs[id] = obj
	return id, alloc + maxWrite, nil
}

func (s *StripedStore) rollbackStripes(obj *stripedObj) {
	for _, replicas := range obj.chunks {
		for _, slab := range replicas {
			s.fabric.FreeSlab(slab) //nolint:errcheck // best-effort cleanup
		}
	}
}

// Get gathers the chunks in parallel (charged time = slowest chunk, trying
// mirrors when a primary's node is down).
func (s *StripedStore) Get(id ObjectID) ([]byte, time.Duration, error) {
	return s.GetInto(id, nil)
}

// GetInto is Get into the caller's buffer.
func (s *StripedStore) GetInto(id ObjectID, buf []byte) ([]byte, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objs[id]
	if !ok {
		return nil, 0, ErrNotFound
	}
	out := sized(buf, obj.size)
	var slowest time.Duration
	for i, replicas := range obj.chunks {
		lo, hi := s.chunkSpan(obj.size, i)
		if hi <= lo {
			continue
		}
		var chunkTime time.Duration
		okRead := false
		for _, slab := range replicas {
			d, err := s.fabric.Read(slab, 0, out[lo:hi])
			chunkTime += d
			if err == nil {
				okRead = true
				break
			}
		}
		if !okRead {
			return nil, slowest, fmt.Errorf("%w: chunk %d of object %d lost", cluster.ErrUnreachable, i, id)
		}
		if chunkTime > slowest {
			slowest = chunkTime
		}
	}
	return out, slowest, nil
}

// Delete frees all chunks.
func (s *StripedStore) Delete(id ObjectID) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objs[id]
	if !ok {
		return 0, ErrNotFound
	}
	var total time.Duration
	for _, replicas := range obj.chunks {
		for _, slab := range replicas {
			d, _ := s.fabric.FreeSlab(slab)
			total += d
		}
	}
	delete(s.objs, id)
	return total, nil
}

// Recover re-creates lost chunk replicas from surviving copies. With
// Mirrors=0 there is nothing to recover from — a lost chunk is data loss,
// the trade-off pure striping makes.
func (s *StripedStore) Recover() (int, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total time.Duration
	repaired := 0
	ids := make([]ObjectID, 0, len(s.objs))
	for id := range s.objs {
		ids = append(ids, id)
	}
	sortObjectIDs(ids)
	for _, id := range ids {
		obj := s.objs[id]
		for i, replicas := range obj.chunks {
			lo, hi := s.chunkSpan(obj.size, i)
			chunkLen := hi - lo
			if chunkLen == 0 {
				chunkLen = 1
			}
			buf := make([]byte, chunkLen)
			var live []cluster.SlabID
			var lost int
			haveData := false
			for _, slab := range replicas {
				d, err := s.fabric.Read(slab, 0, buf[:hi-lo])
				total += d
				if err != nil {
					lost++
					continue
				}
				live = append(live, slab)
				haveData = true
			}
			if lost == 0 {
				continue
			}
			if !haveData {
				return repaired, total, fmt.Errorf("fault: object %d chunk %d lost all replicas", id, i)
			}
			// Re-create the lost replicas on alive nodes not already used.
			alive := s.fabric.AliveNodes()
			hosting := map[string]bool{}
			for _, slab := range live {
				hosting[slab.Node] = true
			}
			for r := 0; r < lost; r++ {
				target := ""
				for _, n := range alive {
					if !hosting[n] {
						target = n
						break
					}
				}
				if target == "" {
					break // cannot spread further
				}
				slab, d, err := s.fabric.AllocSlab(target, int64(chunkLen))
				total += d
				if err != nil {
					return repaired, total, err
				}
				if hi > lo {
					dw, err := s.fabric.Write(slab, 0, buf[:hi-lo])
					total += dw
					if err != nil {
						return repaired, total, err
					}
				}
				live = append(live, slab)
				hosting[target] = true
				repaired++
			}
			obj.chunks[i] = live
		}
	}
	return repaired, total, nil
}

// StoredBytes returns (logical, physical).
func (s *StripedStore) StoredBytes() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var logical, physical int64
	for _, obj := range s.objs {
		logical += int64(obj.size)
		for i, replicas := range obj.chunks {
			lo, hi := s.chunkSpan(obj.size, i)
			chunkLen := hi - lo
			if chunkLen == 0 {
				chunkLen = 1
			}
			physical += int64(chunkLen) * int64(len(replicas))
		}
	}
	return logical, physical
}

func sortObjectIDs(ids []ObjectID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// Compile-time interface check.
var _ Store = (*StripedStore)(nil)
