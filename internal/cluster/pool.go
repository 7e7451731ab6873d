package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// This file is the cluster half of cross-shard region migration: a
// RegionPool turns the raw fabric verbs into the Exporter contract the
// region layer consumes. Export is AllocSlab + Lease + Write (the lease is
// claimed *before* the payload moves, so an initiator crash mid-migration
// leaves a leased slab a survivor can enumerate and adopt — never an
// orphan); Fetch is one Read, falling back to the durable backup when the
// remote host died; Drop is Handoff-free teardown. MIND's placement of
// memory-management state in the network shows up directly: slab ownership
// lives in the fabric control plane, and the NIC-side NodeStats counters
// price every byte a migration moves.

// ErrNoSpillTarget reports an export attempt with no eligible remote host
// (every candidate dead, partitioned, or over its watermark).
var ErrNoSpillTarget = errors.New("cluster: no spill target below watermark")

// Backup is the durable store a RegionPool mirrors exported payloads into,
// so a region survives the crash of the memory node hosting its slab.
// Narrower than fault.Store to avoid an import cycle (internal/fault builds
// on this package); internal/shard adapts fault.Store to it.
type Backup interface {
	Save(key string, data []byte) (time.Duration, error)
	Load(key string) ([]byte, time.Duration, error)
	Discard(key string)
}

// RegionPoolStats counts what a pool did on behalf of its shard.
type RegionPoolStats struct {
	Exported  int           // regions pushed to remote hosts
	Recalled  int           // regions fetched back
	HostLost  int           // fetches served from backup because the host died
	BytesOut  int64         // payload bytes written remotely
	BytesBack int64         // payload bytes read back
	VerbTime  time.Duration // virtual time of all fabric verbs issued
	Live      int           // remote placements currently held
}

// placement records where one exported region lives.
type placement struct {
	slab SlabID
	size int64
}

// RegionPool implements region.Exporter over the cluster fabric for one
// shard (the owner of every lease it takes).
type RegionPool struct {
	mu     sync.Mutex
	f      *Fabric
	owner  string
	spill  func(size int64) []string // candidate hosts, preference order
	mark   float64                   // per-host capacity watermark (0,1]
	backup Backup
	tel    *telemetry.Registry
	seq    uint64
	slabs  map[string]placement
	stats  RegionPoolStats
}

// NewRegionPool builds a pool. spill returns candidate memory nodes in
// preference order for a payload of the given size (typically the ring
// successors of the owning shard); watermark caps each host's fill fraction
// (<=0 defaults to 0.9). backup may be nil (no durability: a host crash
// then loses exported payloads).
func NewRegionPool(f *Fabric, owner string, spill func(size int64) []string, watermark float64, backup Backup, tel *telemetry.Registry) *RegionPool {
	if watermark <= 0 || watermark > 1 {
		watermark = 0.9
	}
	return &RegionPool{
		f:      f,
		owner:  owner,
		spill:  spill,
		mark:   watermark,
		backup: backup,
		tel:    tel,
		slabs:  make(map[string]placement),
	}
}

// Export pushes a payload to the first spill candidate below the capacity
// watermark. The control-plane ordering is deliberate: Lease before Write,
// so if the owner dies mid-migration the half-written slab is already
// leased and a survivor's adoption sweep reclaims it. The backup copy is
// saved before the token exists, so a fetch can always fall back to it.
func (p *RegionPool) Export(id uint64, data []byte) (string, time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	size := int64(len(data))
	if size == 0 {
		return "", 0, ErrInvalidInput
	}
	var total time.Duration
	for _, host := range p.spill(size) {
		used, cap, err := p.f.NodeUsage(host)
		if err != nil || cap <= 0 || float64(used+size)/float64(cap) > p.mark {
			continue
		}
		slab, d, err := p.f.AllocSlab(host, size)
		total += d
		if err != nil {
			continue // host filled up or died between the check and the verb
		}
		d, err = p.f.Lease(slab, p.owner)
		total += d
		if err != nil {
			d, _ = p.f.FreeSlab(slab)
			total += d
			continue
		}
		p.seq++
		token := fmt.Sprintf("%s#%d", p.owner, p.seq)
		if p.backup != nil {
			if d, err := p.backup.Save(token, data); err == nil {
				total += d
			}
		}
		d, err = p.f.Write(slab, 0, data)
		total += d
		if err != nil {
			// Host died between Alloc and Write; the lease makes the slab
			// adoptable, the backup keeps the payload. Treat as failure so
			// the region stays resident.
			p.f.Handoff(slab, p.owner, p.owner+"?dead") //nolint:errcheck // best-effort release
			if p.backup != nil {
				p.backup.Discard(token)
			}
			continue
		}
		p.slabs[token] = placement{slab: slab, size: size}
		p.stats.Exported++
		p.stats.BytesOut += size
		p.stats.VerbTime += total
		p.stats.Live = len(p.slabs)
		p.tel.Add(telemetry.LayerCluster, "region_exports", 1)
		p.tel.Add(telemetry.LayerCluster, "region_export_bytes", size)
		return token, total, nil
	}
	return "", total, fmt.Errorf("%w: %d bytes", ErrNoSpillTarget, size)
}

// Fetch reads a payload back with one fabric read. When the hosting node is
// unreachable (crashed or partitioned), or reachable again but without the
// slab (it crashed and restarted empty), the durable backup serves the bytes
// instead — the same recovery story as cross-shard partial replay. A pool's
// own placement can only read as unknown if its host lost it.
func (p *RegionPool) Fetch(token string, buf []byte) (time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.slabs[token]
	if !ok {
		return 0, fmt.Errorf("%w: token %q", ErrBadSlab, token)
	}
	if int64(len(buf)) < pl.size {
		return 0, fmt.Errorf("%w: buf %d < payload %d", ErrInvalidInput, len(buf), pl.size)
	}
	d, err := p.f.Read(pl.slab, 0, buf[:pl.size])
	if err == nil {
		p.stats.Recalled++
		p.stats.BytesBack += pl.size
		p.stats.VerbTime += d
		p.tel.Add(telemetry.LayerCluster, "region_recalls", 1)
		p.tel.Add(telemetry.LayerCluster, "region_recall_bytes", pl.size)
		return d, nil
	}
	if !errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrBadSlab) || p.backup == nil {
		return d, err
	}
	data, bd, berr := p.backup.Load(token)
	if berr != nil {
		return d, fmt.Errorf("cluster: host lost and backup failed: %v (host: %w)", berr, err)
	}
	copy(buf, data)
	p.stats.Recalled++
	p.stats.HostLost++
	p.stats.BytesBack += pl.size
	p.stats.VerbTime += d + bd
	p.tel.Add(telemetry.LayerCluster, "region_recalls", 1)
	p.tel.Add(telemetry.LayerCluster, "region_recall_bytes", pl.size)
	p.tel.Add(telemetry.LayerCluster, "region_host_lost", 1)
	return d + bd, nil
}

// Drop releases the remote placement under token. Unknown tokens and dead
// hosts are tolerated: the slab is gone either way, and the adoption sweep
// handles leases whose home node died.
func (p *RegionPool) Drop(token string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.slabs[token]
	if !ok {
		return nil
	}
	delete(p.slabs, token)
	p.stats.Live = len(p.slabs)
	if p.backup != nil {
		p.backup.Discard(token)
	}
	if d, err := p.f.FreeSlab(pl.slab); err == nil {
		p.stats.VerbTime += d
	}
	return nil
}

// Abandon is the adoption sweep a survivor runs over a dead shard's pool:
// every lease still held by the dead owner is handed off to adopter and its
// slab freed. The payload is garbage without the dead shard's region table
// — recovery re-materializes regions from checkpoints, not from slabs — so
// reclaiming the memory is the correct disposition; the backup entries are
// likewise discarded. Returns the number of slabs adopted.
func (p *RegionPool) Abandon(adopter string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, slab := range p.f.LeasesOf(p.owner) {
		if adopter != "" {
			if _, err := p.f.Handoff(slab, p.owner, adopter); err != nil {
				continue // lost the race to another survivor
			}
		}
		p.f.FreeSlab(slab) //nolint:errcheck // host may be dead; lease map is already clean
		n++
	}
	for token := range p.slabs {
		if p.backup != nil {
			p.backup.Discard(token)
		}
		delete(p.slabs, token)
	}
	p.stats.Live = 0
	p.tel.Add(telemetry.LayerCluster, "region_exports_adopted", int64(n))
	return n
}

// Stats returns a snapshot of the pool's counters.
func (p *RegionPool) Stats() RegionPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
