package fault

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// ErasureStore stores objects in RS-coded *spans* following Carbink [62]:
// objects are appended into an open span buffer; when the buffer reaches the
// span size (or Flush is called), the span is split into d data shards plus
// p parity shards, each written to a distinct memory node. Reads of healthy
// spans touch only the data shards holding the object; degraded reads
// reconstruct from any d shards. Deleting objects leaves garbage in their
// spans; Compact rewrites spans whose live fraction drops below a threshold,
// reclaiming physical memory — the "compaction" the paper cites from
// Carbink.
type ErasureStore struct {
	mu     sync.Mutex
	fabric *cluster.Fabric
	rs     *RS
	// spanSize is the logical payload bytes per span (before sharding).
	spanSize int
	next     ObjectID
	objects  map[ObjectID]objLoc
	spans    map[int]*span
	nextSpan int
	open     *openSpan
	rr       int
	// gcThreshold: compact spans whose live ratio falls below this.
	gcThreshold float64
}

type objLoc struct {
	span int
	off  int
	size int
}

type span struct {
	shardSize int
	shards    []cluster.SlabID // d+p slabs on distinct nodes
	nodes     []string
	liveBytes int
	usedBytes int
	sealed    bool
}

type openSpan struct {
	id  int
	buf []byte
	// objects staged into this span, finalized at seal time.
	staged []ObjectID
}

// ErasureConfig tunes the store.
type ErasureConfig struct {
	Data, Parity int     // RS geometry, default 4+2
	SpanSize     int     // payload bytes per span, default 64 KiB
	GCThreshold  float64 // compact below this live ratio, default 0.5
}

// NewErasureStore builds a Carbink-style store over the fabric.
func NewErasureStore(f *cluster.Fabric, cfg ErasureConfig) (*ErasureStore, error) {
	if cfg.Data <= 0 {
		cfg.Data = 4
	}
	if cfg.Parity <= 0 {
		cfg.Parity = 2
	}
	if cfg.SpanSize <= 0 {
		cfg.SpanSize = 64 << 10
	}
	if cfg.GCThreshold <= 0 {
		cfg.GCThreshold = 0.5
	}
	rs, err := NewRS(cfg.Data, cfg.Parity)
	if err != nil {
		return nil, err
	}
	if len(f.Nodes()) < rs.TotalShards() {
		return nil, fmt.Errorf("fault: %d nodes cannot host %d shards", len(f.Nodes()), rs.TotalShards())
	}
	return &ErasureStore{
		fabric: f, rs: rs, spanSize: cfg.SpanSize,
		objects: make(map[ObjectID]objLoc), spans: make(map[int]*span),
		gcThreshold: cfg.GCThreshold,
	}, nil
}

// Overhead returns the configured storage expansion factor.
func (s *ErasureStore) Overhead() float64 { return s.rs.Overhead() }

// Put appends the object to the open span, sealing the span when full.
func (s *ErasureStore) Put(data []byte) (ObjectID, time.Duration, error) {
	if len(data) == 0 {
		return 0, 0, cluster.ErrInvalidInput
	}
	if len(data) > s.spanSize {
		return 0, 0, fmt.Errorf("%w: object %d exceeds span size %d", cluster.ErrInvalidInput, len(data), s.spanSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var total time.Duration
	if s.open != nil && len(s.open.buf)+len(data) > s.spanSize {
		d, err := s.sealLocked()
		total += d
		if err != nil {
			return 0, total, err
		}
	}
	if s.open == nil {
		s.open = &openSpan{id: s.nextSpan}
		s.nextSpan++
	}
	oid := s.next
	s.next++
	s.objects[oid] = objLoc{span: s.open.id, off: len(s.open.buf), size: len(data)}
	s.open.buf = append(s.open.buf, data...)
	s.open.staged = append(s.open.staged, oid)
	return oid, total, nil
}

// Flush seals the open span, making all staged objects durable.
func (s *ErasureStore) Flush() (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealLocked()
}

// sealLocked encodes and ships the open span. Caller holds s.mu.
func (s *ErasureStore) sealLocked() (time.Duration, error) {
	if s.open == nil || len(s.open.buf) == 0 {
		s.open = nil
		return 0, nil
	}
	alive := s.fabric.AliveNodes()
	if len(alive) < s.rs.TotalShards() {
		return 0, fmt.Errorf("%w: %d alive nodes, need %d", cluster.ErrUnreachable, len(alive), s.rs.TotalShards())
	}
	shards, shardSize := s.rs.Split(s.open.buf)
	if err := s.rs.Encode(shards); err != nil {
		return 0, err
	}
	// Bytes of objects deleted while staged are garbage from birth.
	live := 0
	for _, oid := range s.open.staged {
		if loc, ok := s.objects[oid]; ok && loc.span == s.open.id {
			live += loc.size
		}
	}
	sp := &span{shardSize: shardSize, liveBytes: live, usedBytes: len(s.open.buf), sealed: true}
	var total, maxWrite time.Duration
	for i, shard := range shards {
		node := alive[(s.rr+i)%len(alive)]
		slab, d, err := s.fabric.AllocSlab(node, int64(shardSize))
		total += d
		if err != nil {
			return total, err
		}
		dw, err := s.fabric.Write(slab, 0, shard)
		if dw > maxWrite {
			maxWrite = dw
		}
		if err != nil {
			return total, err
		}
		sp.shards = append(sp.shards, slab)
		sp.nodes = append(sp.nodes, node)
	}
	total += maxWrite // shard writes fan out in parallel
	s.rr = (s.rr + 1) % len(alive)
	s.spans[s.open.id] = sp
	s.open = nil
	return total, nil
}

// Get reads an object. Healthy path: read only the data shards covering the
// object's byte range. Degraded path: reconstruct the span from any d shards.
func (s *ErasureStore) Get(id ObjectID) ([]byte, time.Duration, error) {
	return s.GetInto(id, nil)
}

// GetInto is Get into the caller's buffer.
func (s *ErasureStore) GetInto(id ObjectID, buf []byte) ([]byte, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.objects[id]
	if !ok {
		return nil, 0, ErrNotFound
	}
	// Still staged in the open span?
	if s.open != nil && s.open.id == loc.span {
		out := sized(buf, loc.size)
		copy(out, s.open.buf[loc.off:loc.off+loc.size])
		return out, 0, nil
	}
	sp, ok := s.spans[loc.span]
	if !ok {
		return nil, 0, fmt.Errorf("fault: object %d references missing span %d", id, loc.span)
	}
	// Fast path: read the byte range straight from data shards.
	out := sized(buf, loc.size)
	var total time.Duration
	healthy := true
	for n := 0; n < loc.size; {
		abs := loc.off + n
		shard := abs / sp.shardSize
		within := abs % sp.shardSize
		chunk := sp.shardSize - within
		if chunk > loc.size-n {
			chunk = loc.size - n
		}
		d, err := s.fabric.Read(sp.shards[shard], int64(within), out[n:n+chunk])
		total += d
		if err != nil {
			healthy = false
			break
		}
		n += chunk
	}
	if healthy {
		return out, total, nil
	}
	// Degraded read: gather any d shards and reconstruct.
	buf, d, err := s.readSpanLocked(sp)
	total += d
	if err != nil {
		return nil, total, err
	}
	copy(out, buf[loc.off:loc.off+loc.size])
	return out, total, nil
}

// readSpanLocked returns the span's full payload, reconstructing if needed.
func (s *ErasureStore) readSpanLocked(sp *span) ([]byte, time.Duration, error) {
	shards := make([][]byte, s.rs.TotalShards())
	var total time.Duration
	got := 0
	for i, slab := range sp.shards {
		if got >= s.rs.DataShards() && i >= s.rs.DataShards() {
			break // we have enough
		}
		buf := make([]byte, sp.shardSize)
		d, err := s.fabric.Read(slab, 0, buf)
		total += d
		if err != nil {
			continue
		}
		shards[i] = buf
		got++
	}
	if got < s.rs.DataShards() {
		return nil, total, fmt.Errorf("%w: span has %d of %d shards", ErrTooFewOK, got, s.rs.DataShards())
	}
	if err := s.rs.Reconstruct(shards); err != nil {
		return nil, total, err
	}
	joined, err := s.rs.Join(shards, sp.usedBytes)
	if err != nil {
		return nil, total, err
	}
	return joined, total, nil
}

// Delete marks the object dead; physical space is reclaimed by Compact.
func (s *ErasureStore) Delete(id ObjectID) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.objects[id]
	if !ok {
		return 0, ErrNotFound
	}
	delete(s.objects, id)
	if s.open != nil && s.open.id == loc.span {
		return 0, nil // staged bytes die with the rewrite at seal
	}
	if sp, ok := s.spans[loc.span]; ok {
		sp.liveBytes -= loc.size
	}
	return 0, nil
}

// Compact rewrites spans whose live ratio fell below the threshold: live
// objects are re-Put into fresh spans, dead spans are freed. Returns the
// number of compacted spans and the virtual time spent (the offloadable
// parity work the paper mentions).
func (s *ErasureStore) Compact() (int, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var victims []int
	for id, sp := range s.spans {
		if !sp.sealed {
			continue
		}
		if sp.usedBytes == 0 || float64(sp.liveBytes)/float64(sp.usedBytes) < s.gcThreshold {
			victims = append(victims, id)
		}
	}
	sort.Ints(victims)
	var total time.Duration
	compacted := 0
	for _, vid := range victims {
		sp := s.spans[vid]
		// Collect live objects of this span.
		type liveObj struct {
			id   ObjectID
			data []byte
		}
		var live []liveObj
		if sp.liveBytes > 0 {
			payload, d, err := s.readSpanLocked(sp)
			total += d
			if err != nil {
				return compacted, total, err
			}
			for oid, loc := range s.objects {
				if loc.span != vid {
					continue
				}
				data := make([]byte, loc.size)
				copy(data, payload[loc.off:loc.off+loc.size])
				live = append(live, liveObj{oid, data})
			}
			sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
		}
		// Free the old shards.
		for _, slab := range sp.shards {
			d, _ := s.fabric.FreeSlab(slab)
			total += d
		}
		delete(s.spans, vid)
		// Re-stage live objects preserving their IDs.
		for _, lo := range live {
			if s.open != nil && len(s.open.buf)+len(lo.data) > s.spanSize {
				d, err := s.sealLocked()
				total += d
				if err != nil {
					return compacted, total, err
				}
			}
			if s.open == nil {
				s.open = &openSpan{id: s.nextSpan}
				s.nextSpan++
			}
			s.objects[lo.id] = objLoc{span: s.open.id, off: len(s.open.buf), size: len(lo.data)}
			s.open.buf = append(s.open.buf, lo.data...)
			s.open.staged = append(s.open.staged, lo.id)
		}
		compacted++
	}
	return compacted, total, nil
}

// Recover rebuilds shards lost to node crashes: every sealed span is probed
// and missing shards are reconstructed onto alive nodes.
func (s *ErasureStore) Recover() (int, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total time.Duration
	repaired := 0
	spanIDs := make([]int, 0, len(s.spans))
	for id := range s.spans {
		spanIDs = append(spanIDs, id)
	}
	sort.Ints(spanIDs)
	for _, sid := range spanIDs {
		sp := s.spans[sid]
		shards := make([][]byte, s.rs.TotalShards())
		var missing []int
		for i, slab := range sp.shards {
			buf := make([]byte, sp.shardSize)
			d, err := s.fabric.Read(slab, 0, buf)
			total += d
			if err != nil {
				missing = append(missing, i)
				continue
			}
			shards[i] = buf
		}
		if len(missing) == 0 {
			continue
		}
		if err := s.rs.Reconstruct(shards); err != nil {
			return repaired, total, err
		}
		alive := s.fabric.AliveNodes()
		if len(alive) == 0 {
			return repaired, total, cluster.ErrUnreachable
		}
		for _, mi := range missing {
			// Place the rebuilt shard on an alive node not already hosting
			// a shard of this span, if possible.
			target := ""
			hosting := make(map[string]bool, len(sp.nodes))
			for j, n := range sp.nodes {
				if j != mi && !contains(missing, j) {
					hosting[n] = true
				}
			}
			for _, n := range alive {
				if !hosting[n] {
					target = n
					break
				}
			}
			if target == "" {
				target = alive[0]
			}
			slab, d, err := s.fabric.AllocSlab(target, int64(sp.shardSize))
			total += d
			if err != nil {
				return repaired, total, err
			}
			dw, err := s.fabric.Write(slab, 0, shards[mi])
			total += dw
			if err != nil {
				return repaired, total, err
			}
			sp.shards[mi] = slab
			sp.nodes[mi] = target
			repaired++
		}
	}
	return repaired, total, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// StoredBytes returns (logical live bytes, physical bytes incl. parity and
// garbage) — the overhead witness benchmarked against replication.
func (s *ErasureStore) StoredBytes() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var logical, physical int64
	for _, loc := range s.objects {
		logical += int64(loc.size)
	}
	for _, sp := range s.spans {
		physical += int64(sp.shardSize) * int64(s.rs.TotalShards())
	}
	if s.open != nil {
		physical += int64(len(s.open.buf))
	}
	return logical, physical
}

// SpanCount returns the number of sealed spans (tests and reports).
func (s *ErasureStore) SpanCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}
