package fault

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
)

// This file provides the two durable far-memory object stores the paper's
// challenge 8(3) contrasts: ReplicatedStore (k-way replication, simple and
// fast to read but ≥2× memory) and ErasureStore (RS-coded spans in the style
// of Carbink [62]: ~1.5× memory, parity computed per span, degraded reads
// reconstruct, and a compactor reclaims dead spans). Both speak one-sided
// verbs against a cluster.Fabric and survive the crash of up to their
// redundancy budget of memory nodes.

// ErrNotFound is returned when an object key is unknown.
var ErrNotFound = errors.New("fault: object not found")

// ObjectID names a stored object.
type ObjectID uint64

// Store is the common interface of the redundancy schemes.
type Store interface {
	// Put stores a copy of data under a fresh id, returning the virtual time
	// spent. It must not retain data: the caller reuses the buffer as soon
	// as Put returns.
	Put(data []byte) (ObjectID, time.Duration, error)
	// Get returns the object's bytes (reconstructing if nodes are down) in a
	// buffer that is the caller's: the store keeps no reference to it.
	Get(id ObjectID) ([]byte, time.Duration, error)
	// GetInto is Get into the caller's buffer: the bytes land in buf's
	// backing array when its capacity holds them, in a fresh one otherwise,
	// and the filled slice is returned.
	GetInto(id ObjectID, buf []byte) ([]byte, time.Duration, error)
	// Delete removes the object.
	Delete(id ObjectID) (time.Duration, error)
	// Recover re-establishes full redundancy after node failures,
	// returning repaired object count and virtual repair time.
	Recover() (int, time.Duration, error)
	// StoredBytes returns (logical, physical) byte counts: the memory
	// overhead witness.
	StoredBytes() (int64, int64)
}

// ---------------------------------------------------------------------------
// Replication

// ReplicatedStore keeps k full copies of each object on distinct nodes.
type ReplicatedStore struct {
	mu       sync.Mutex
	fabric   *cluster.Fabric
	replicas int
	next     ObjectID
	objects  map[ObjectID]*replObject
	rr       int // round-robin cursor over nodes
}

type replObject struct {
	size int
	// copies is sorted by node (a SlabID names its node), so read-any tries
	// replicas in a deterministic order.
	copies []cluster.SlabID
}

// add files a new replica in node order.
func (o *replObject) add(slab cluster.SlabID) {
	at, _ := slices.BinarySearchFunc(o.copies, slab, func(a, b cluster.SlabID) int { return strings.Compare(a.Node, b.Node) })
	o.copies = slices.Insert(o.copies, at, slab)
}

// sized returns buf cut to n bytes when its capacity holds them, a fresh
// buffer otherwise.
func sized(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// NewReplicatedStore builds a store with the given replication factor.
func NewReplicatedStore(f *cluster.Fabric, replicas int) (*ReplicatedStore, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("fault: replication factor %d", replicas)
	}
	if len(f.Nodes()) < replicas {
		return nil, fmt.Errorf("fault: %d nodes cannot host %d replicas", len(f.Nodes()), replicas)
	}
	return &ReplicatedStore{fabric: f, replicas: replicas, objects: make(map[ObjectID]*replObject)}, nil
}

// Put writes the object to all replicas (write-all): distinct alive nodes,
// taken round-robin from the cursor for spread.
func (s *ReplicatedStore) Put(data []byte) (ObjectID, time.Duration, error) {
	if len(data) == 0 {
		return 0, 0, cluster.ErrInvalidInput
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	alive := s.fabric.AliveNodes()
	if len(alive) < s.replicas {
		return 0, 0, fmt.Errorf("%w: %d alive, need %d", cluster.ErrUnreachable, len(alive), s.replicas)
	}
	first := s.rr
	s.rr = (s.rr + 1) % len(alive)
	obj := &replObject{size: len(data), copies: make([]cluster.SlabID, 0, s.replicas)}
	var total, maxT time.Duration
	for i := 0; i < s.replicas; i++ {
		id, d, err := s.fabric.AllocSlab(alive[(first+i)%len(alive)], int64(len(data)))
		total += d
		if err != nil {
			s.rollback(obj)
			return 0, total, err
		}
		d2, err := s.fabric.Write(id, 0, data)
		if d2 > maxT {
			maxT = d2
		}
		if err != nil {
			s.rollback(obj)
			return 0, total, err
		}
		obj.add(id)
	}
	// Replica writes go out in parallel: charge the slowest, not the sum.
	total += maxT
	oid := s.next
	s.next++
	s.objects[oid] = obj
	return oid, total, nil
}

func (s *ReplicatedStore) rollback(obj *replObject) {
	for _, slab := range obj.copies {
		s.fabric.FreeSlab(slab) //nolint:errcheck // best-effort cleanup
	}
}

// Get reads from the first reachable replica (read-any).
func (s *ReplicatedStore) Get(id ObjectID) ([]byte, time.Duration, error) {
	return s.GetInto(id, nil)
}

// GetInto is Get into the caller's buffer.
func (s *ReplicatedStore) GetInto(id ObjectID, buf []byte) ([]byte, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok {
		return nil, 0, ErrNotFound
	}
	buf = sized(buf, obj.size)
	var total time.Duration
	for _, slab := range obj.copies {
		d, err := s.fabric.Read(slab, 0, buf)
		total += d
		if err == nil {
			return buf, total, nil
		}
	}
	return nil, total, fmt.Errorf("%w: all %d replicas of object %d", cluster.ErrUnreachable, s.replicas, id)
}

// Delete frees all reachable replicas.
func (s *ReplicatedStore) Delete(id ObjectID) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok {
		return 0, ErrNotFound
	}
	var total time.Duration
	for _, slab := range obj.copies {
		d, _ := s.fabric.FreeSlab(slab)
		total += d
	}
	delete(s.objects, id)
	return total, nil
}

// Recover re-replicates objects whose copies were lost to crashes.
func (s *ReplicatedStore) Recover() (int, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var repaired int
	var total time.Duration
	oids := make([]ObjectID, 0, len(s.objects))
	for oid := range s.objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		obj := s.objects[oid]
		// Probe copies, drop dead ones.
		buf := make([]byte, obj.size)
		var data []byte
		healthy := obj.copies[:0]
		for _, slab := range obj.copies {
			d, err := s.fabric.Read(slab, 0, buf)
			total += d
			if err != nil {
				continue
			}
			healthy = append(healthy, slab)
			if data == nil {
				data = make([]byte, obj.size)
				copy(data, buf)
			}
		}
		obj.copies = healthy
		if data == nil {
			return repaired, total, fmt.Errorf("fault: object %d lost all replicas", oid)
		}
		for len(obj.copies) < s.replicas {
			alive := s.fabric.AliveNodes()
			n := ""
			for i := range alive {
				cand := alive[(s.rr+i)%len(alive)]
				if !slices.ContainsFunc(obj.copies, func(c cluster.SlabID) bool { return c.Node == cand }) {
					n = cand
					break
				}
			}
			if n == "" {
				// Every alive node already holds a copy; cannot spread further.
				break
			}
			s.rr = (s.rr + 1) % len(alive)
			slab, d, err := s.fabric.AllocSlab(n, int64(obj.size))
			total += d
			if err != nil {
				return repaired, total, err
			}
			d2, err := s.fabric.Write(slab, 0, data)
			total += d2
			if err != nil {
				return repaired, total, err
			}
			obj.add(slab)
			repaired++
		}
	}
	return repaired, total, nil
}

// StoredBytes returns logical vs physical bytes.
func (s *ReplicatedStore) StoredBytes() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var logical, physical int64
	for _, obj := range s.objects {
		logical += int64(obj.size)
		physical += int64(obj.size) * int64(len(obj.copies))
	}
	return logical, physical
}
