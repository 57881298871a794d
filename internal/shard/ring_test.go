package shard

import (
	"fmt"
	"math"
	"testing"
)

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i)
	}
	return out
}

// sessionIDs returns a session population of the shape bench/ drives
// ("s%06d") — deliberately structured keys, the worst case for a
// weak hash.
func sessionIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%06d", i)
	}
	return out
}

func TestRingDeterministicAcrossInstances(t *testing.T) {
	// A restarted gateway builds a new Ring from the same membership and
	// must route every session to the shard that already holds it.
	// maphash-style per-process seeding would pass a single-instance test
	// and break that, so agreement is asserted across independent
	// instances (construction order shuffled).
	a := NewRing(64, []string{"s0", "s1", "s2"})
	b := NewRing(64, []string{"s2", "s0", "s1"})
	for _, id := range sessionIDs(1000) {
		if ao, bo := a.Owner(id), b.Owner(id); ao != bo {
			t.Fatalf("rings disagree on %q: %q vs %q", id, ao, bo)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(0, nil).Owner("x"); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	r := NewRing(0, []string{"only"})
	for _, id := range sessionIDs(100) {
		if got := r.Owner(id); got != "only" {
			t.Fatalf("single-shard ring routed %q to %q", id, got)
		}
	}
	if got := NewRing(0, []string{"a", "a", "b"}).Len(); got != 2 {
		t.Errorf("duplicate members: Len = %d, want 2", got)
	}
}

// arcShares computes each shard's analytic share of the hash circle —
// the exact probability a uniformly-hashed key lands on that shard.
func arcShares(r *Ring) map[string]float64 {
	shares := make(map[string]float64, len(r.shards))
	pts := r.points
	for i, p := range pts {
		var arc uint64
		if i == 0 {
			// Wraparound arc: from the last point over the top to the first.
			arc = pts[0].hash + (math.MaxUint64 - pts[len(pts)-1].hash)
		} else {
			arc = p.hash - pts[i-1].hash
		}
		shares[p.shard] += float64(arc) / float64(math.MaxUint64)
	}
	return shares
}

// TestRingUniformDistribution checks the two halves of "uniform load"
// separately, because they fail for different reasons:
//
//  1. Key spread: 100k session IDs must land on shards in proportion to
//     each shard's analytic arc share — a chi-squared test of the key
//     hash itself. A weak hash (e.g. raw FNV on structured IDs, without
//     the avalanche finalizer) fails here no matter how many vnodes the
//     ring has.
//  2. Arc balance: the arc shares themselves must be close to even —
//     vnode placement smooths them by averaging ~vnodes independent arc
//     lengths per shard (relative SD ~ 1/sqrt(vnodes)). Too few vnodes
//     fails here no matter how strong the hash is.
func TestRingUniformDistribution(t *testing.T) {
	// 99.9% chi-squared critical values by degrees of freedom (shards-1):
	// a deterministic hash makes this a fixed computation, so exceeding
	// the bound is a real distribution defect, not test flake.
	crit := map[int]float64{1: 10.83, 2: 13.82, 4: 18.47, 7: 24.32}
	const n = 100000
	ids := sessionIDs(n)
	for _, tc := range []struct {
		shards, vnodes int
		maxArcDev      float64 // observed ≤ 0.165 (128 vn), ≤ 0.07 (1024 vn)
	}{
		{2, DefaultVNodes, 0.20},
		{3, DefaultVNodes, 0.20},
		{5, DefaultVNodes, 0.20},
		{8, DefaultVNodes, 0.20},
		{3, 1024, 0.10},
		{8, 1024, 0.10},
	} {
		r := NewRing(tc.vnodes, shardNames(tc.shards))
		shares := arcShares(r)
		counts := make(map[string]int, tc.shards)
		for _, id := range ids {
			counts[r.Owner(id)]++
		}
		chi := 0.0
		for _, s := range r.Shards() {
			share := shares[s]
			if dev := math.Abs(share*float64(tc.shards) - 1); dev > tc.maxArcDev {
				t.Errorf("%d shards × %d vnodes: shard %s owns %.1f%% of the circle, want within %.0f%% of even",
					tc.shards, tc.vnodes, s, share*100, tc.maxArcDev*100)
			}
			exp := share * n
			d := float64(counts[s]) - exp
			chi += d * d / exp
		}
		if bound := crit[tc.shards-1]; chi > bound {
			t.Errorf("%d shards × %d vnodes: chi-squared %.2f over arc expectation exceeds %.2f (99.9%%, %d dof); counts=%v",
				tc.shards, tc.vnodes, chi, bound, tc.shards-1, counts)
		}
	}
}

// TestRingMinimalMovement is the property that justifies consistent
// hashing at all: growing N shards to N+1 moves only the keys the new
// shard now owns — everything else keeps its owner — and the moved
// fraction is about 1/(N+1).
func TestRingMinimalMovement(t *testing.T) {
	const n = 100000
	ids := sessionIDs(n)
	for _, before := range []int{1, 2, 3, 4, 7} {
		old := NewRing(DefaultVNodes, shardNames(before))
		grown := NewRing(DefaultVNodes, shardNames(before+1))
		newcomer := fmt.Sprintf("s%d", before)
		moved := 0
		for _, id := range ids {
			a, b := old.Owner(id), grown.Owner(id)
			if a == b {
				continue
			}
			if b != newcomer {
				t.Fatalf("%d→%d shards: %q moved %q→%q, not to the new shard %q",
					before, before+1, id, a, b, newcomer)
			}
			moved++
		}
		ideal := float64(n) / float64(before+1)
		// The moved set is exactly the newcomer's arc share, so the bound
		// tracks the arc-balance tolerance above (±20% + rounding head
		// room), and a floor catches a ring that never reassigns anything.
		if f := float64(moved); f > 1.35*ideal || f < 0.5*ideal {
			t.Errorf("%d→%d shards: %d of %d keys moved, want ≈%.0f (1/%d)",
				before, before+1, moved, n, ideal, before+1)
		}
	}
}
