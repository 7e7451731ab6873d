// Package shard scales the serving engine horizontally: a front-end Cluster
// consistent-hashes submissions across N core.Server shards, each backed by
// its own runtime and epoch pool, over the disaggregated memory fabric
// (internal/cluster). The paper's deployment story — and MIND's argument
// that routing and memory-management logic belongs in the network layer
// between compute and memory nodes — shows up in three places:
//
//   - routing state (the hash ring) is derived only from membership, so any
//     front end computes the same assignment (Signature → shard) without
//     coordination;
//   - every admission is recorded in the home shard's ledger slab through a
//     one-sided fabric Write, so cross-shard traffic is priced (and
//     attributable per node via cluster.NodeStats);
//   - slab ownership lives in the fabric control plane (cluster.Lease /
//     Handoff), so when a shard is partitioned a survivor adopts its ledger
//     with a single control-plane CAS — no agreement with the dead node
//     needed (a crash destroys the ledger, and its lease with it) — and
//     in-flight jobs are re-routed, resuming from whatever the dead shard
//     checkpointed (partial replay across shards).
//
// Every routing decision is step (protocol.go), a pure function that
// TestShardProtocolExhaustive runs over every interleaving; Cluster.feed
// performs its effects.
//
// Each shard keeps the engine's core invariant: virtual-time reports are
// byte-identical to solo Runtime.Run at any shard count, worker count, or
// failover history (a re-routed job re-plans against the survivor's idle
// machine exactly as it would have at home).
package shard

import (
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/dataflow"
)

// Signature is the routing key of a job: an FNV-64a hash over the job name
// and its task IDs in declaration order, each ID after a NUL byte. Two
// structurally identical submissions route to the same shard; the signature
// is independent of membership, so the ring — not the key — absorbs shard
// failures. It reads the name and the IDs in place and allocates nothing.
func Signature(job *dataflow.Job) uint64 {
	h := fnvAdd(fnvOffset, job.Name())
	for i := range job.Len() {
		h *= fnvPrime // the NUL byte: FNV-1a's xor with 0 changes nothing
		h = fnvAdd(h, job.TaskAt(i).ID())
	}
	return h
}

// The FNV-64a parameters (hash/fnv's New64a).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvAdd folds s into the FNV-64a state h.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard int
}

// ring is a consistent-hash circle: every shard contributes the same number
// of points, so the shards split the key space evenly, and the loss of one
// shard spreads its keys across all survivors instead of dumping them on one
// neighbor.
type ring struct {
	points []ringPoint
}

// buildRing hashes vnodes virtual nodes per shard onto the circle. The point
// set depends only on the names, never on liveness: routing under failure
// walks the same circle and skips dead shards, which is what makes
// assignments reproducible for a given membership.
func buildRing(names []string) *ring {
	r := &ring{}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			io.WriteString(h, name)
			h.Write([]byte{'#', byte(v), byte(v >> 8), byte(v >> 16)})
			r.points = append(r.points, ringPoint{hash: h.Sum64(), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// walkFrom lists the distinct alive shards in ring order starting just
// after shard's first point, excluding shard itself — the spill-target
// preference order for cross-shard region migration. Pure function of
// (ring, membership), like successor: every shard computes the same walk.
func (r *ring) walkFrom(shard int, alive func(int) bool) []int {
	n := len(r.points)
	if n == 0 {
		return nil
	}
	start := 0
	for i, p := range r.points {
		if p.shard == shard {
			start = i + 1
			break
		}
	}
	var out []int
	seen := map[int]bool{shard: true}
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if !seen[p.shard] && alive(p.shard) {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// successor returns the first alive shard at or after key on the circle,
// or -1 when no alive shard exists. alive(i) reports shard i's health.
func (r *ring) successor(key uint64, alive func(int) bool) int {
	n := len(r.points)
	if n == 0 {
		return -1
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if alive(p.shard) {
			return p.shard
		}
	}
	return -1
}
