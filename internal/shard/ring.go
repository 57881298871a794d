// Package shard spreads sessions over a fixed set of serve processes. A
// consistent-hash ring assigns every session ID to one backend, and a
// Gateway proxies session traffic to that owner shard. Every backend
// serves the same static catalogue, and membership is fixed when the
// gateway starts.
//
// The ring is deterministic — no per-process seeding — and pure, so a
// restarted gateway routes every session to the shard that already holds
// it.
package shard

import (
	"slices"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard when a Config leaves
// it zero. More vnodes smooth the load split (the
// deviation of a shard's share shrinks roughly with 1/sqrt(vnodes·shards))
// at the cost of a larger sorted point set; 128 keeps a 100k-session
// population within a few percent of even across small clusters.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over a shard membership.
// Every method is safe for concurrent use.
type Ring struct {
	vnodes int
	shards []string // sorted, deduplicated
	points []point  // sorted by (hash, shard)
}

// point is one virtual node: a position on the hash circle owned by a
// shard.
type point struct {
	hash  uint64
	shard string
}

// NewRing builds a ring with vnodes virtual nodes per shard (0 selects
// DefaultVNodes). Duplicate shard IDs are collapsed; membership order is
// irrelevant — two rings over the same set route identically.
func NewRing(vnodes int, shards []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	members := slices.Clone(shards)
	sort.Strings(members)
	members = slices.Compact(members)
	r := &Ring{vnodes: vnodes, shards: members}
	r.points = make([]point, 0, len(members)*vnodes)
	for _, s := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(s + "#" + strconv.Itoa(v)), shard: s})
		}
	}
	// Ties (two shards hashing a vnode to the same position) are broken by
	// shard name so every ring over this membership agrees on the owner.
	slices.SortFunc(r.points, func(a, b point) int {
		switch {
		case a.hash < b.hash:
			return -1
		case a.hash > b.hash:
			return 1
		case a.shard < b.shard:
			return -1
		case a.shard > b.shard:
			return 1
		}
		return 0
	})
	return r
}

// Owner returns the shard a key routes to: the first virtual node at or
// clockwise of the key's hash, wrapping at the top of the circle. An
// empty ring owns nothing and returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Shards returns the membership, sorted (do not mutate).
func (r *Ring) Shards() []string { return r.shards }

// VNodes returns the virtual-node count per shard.
func (r *Ring) VNodes() int { return r.vnodes }

// Len returns the number of member shards.
func (r *Ring) Len() int { return len(r.shards) }

// hash64 maps a string onto the ring circle: FNV-1a for the byte mixing,
// then a murmur-style avalanche finalizer. Raw FNV keeps structured keys
// (sequential session IDs, "shard#vnode" labels) clustered in the low
// bits; the finalizer spreads them over the full 64-bit circle, which the
// uniform-distribution test depends on. Deterministic across processes.
func hash64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
