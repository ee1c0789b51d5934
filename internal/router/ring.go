// Package router implements the failure-aware routing tier in front of a
// sharded release (internal/release.SplitRelease): a consistent-hash ring
// assigns clusters to shards and orders each shard's replicas per user,
// and the Router proxies single-user reads to the owning shard and
// scatter/gathers batch requests across shards — with per-replica circuit
// breakers, capped jittered retries, optional hedged reads, and partial
// batch results that are explicitly labeled degraded instead of becoming
// all-or-nothing 502s.
//
// Everything here is stdlib-only. The ring uses FNV-1a with virtual nodes;
// randomized decisions (retry jitter) come from a seeded SplitMix64, never
// math/rand (which this repository confines to internal/dp).
package router

import (
	"fmt"
	"sort"

	"socialrec/internal/splitmix"
)

// Ring is a consistent-hash ring over a fixed set of named nodes. It is
// immutable after construction and safe for concurrent use.
//
// The same ring construction serves two jobs: cmd/recserve uses one over
// shard names to assign clusters to shards at split time (so adding a
// shard moves ~1/n of the clusters instead of reshuffling everything), and
// the Router uses one per shard over replica URLs so a given user's
// requests prefer the same replica (cache affinity) while the successor
// order provides the natural failover sequence.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int32
}

// NewRing builds a ring over nodes with the given number of virtual nodes
// each; vnodes <= 0 selects 64. Node names must be non-empty and unique.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for i, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("router: ring node %d has empty name", i)
		}
		if seen[n] {
			return nil, fmt.Errorf("router: duplicate ring node %q", n)
		}
		seen[n] = true
		base := fnv1a(n)
		for v := 0; v < vnodes; v++ {
			// Weyl-step the vnode index into the node's hash, then mix:
			// without the finalizer, similar names (and vnode indices)
			// land in a narrow band and the ring degenerates.
			h := splitmix.Mix(base + uint64(v)*splitmix.Gamma)
			r.points = append(r.points, ringPoint{hash: h, node: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the node names in construction order.
func (r *Ring) Nodes() []string { return r.nodes }

// Node returns the node owning key: the first ring point at or clockwise
// of the key's hash.
func (r *Ring) Node(key string) string {
	return r.nodes[r.points[r.at(key)].node]
}

// NodeIndex is Node returning the node's construction-order index.
func (r *Ring) NodeIndex(key string) int {
	return int(r.points[r.at(key)].node)
}

// Ordered returns every distinct node in ring order starting from the
// key's owner: element 0 is Node(key), element 1 is the first distinct
// successor, and so on. This is the failover / replica-preference order
// for the key.
func (r *Ring) Ordered(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i, n := r.at(key), 0; n < len(r.points); i++ {
		p := r.points[i%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
			n++
			if len(out) == len(r.nodes) {
				break
			}
		}
	}
	return out
}

// at returns the index of the first point at or clockwise of key's hash.
// FNV-1a alone leaves keys that differ in their last byte within
// ~255·fnvPrime of each other, which would put sequential user keys on
// one arc; the SplitMix64 finalizer spreads them over the whole circle.
func (r *Ring) at(key string) int {
	h := splitmix.Mix(fnv1a(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a is the 64-bit FNV-1a hash of s.
func fnv1a(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}
