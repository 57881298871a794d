// Package prefgraph maintains the set of pairwise package preferences
// elicited from a user as a directed acyclic graph, detects cycles, and
// omits redundant preferences from the constraint set via transitive
// reduction (paper §3.3,
// using the Aho–Garey–Ullman construction [2]). The reduced edge set is the
// constraint set samplers check, so reduction directly cuts per-sample
// validation cost ("pruning" in Figure 5). The graph stores packages and
// edges only; the half-space of each edge is derived on demand from the
// package vectors of whichever feature space the caller samples in.
package prefgraph

import (
	"errors"
	"fmt"
	"slices"

	"toppkg/internal/pkgspace"
)

// ErrCycle is returned when a new preference would contradict recorded
// preferences (a directed cycle). Nothing is recorded and the earlier
// preferences stand: a click skips the contradicting pair, and explicit
// feedback reports the contradiction to its caller.
var ErrCycle = errors.New("prefgraph: preference would create a cycle")

// ErrSelfPreference is returned when a preference names the same package
// as winner and loser.
var ErrSelfPreference = errors.New("prefgraph: preference between identical packages")

// Constraint is one pairwise preference translated into the half-space
// constraint on weight vectors: a vector w is consistent with the
// preference iff w · Diff ≥ 0, where Diff = winner vector − loser vector
// (paper §3.1).
type Constraint struct {
	// Winner and Loser identify the packages (node indices are internal).
	Winner, Loser pkgspace.Package
	// Diff is winnerVec − loserVec in the normalized aggregate space.
	Diff []float64
}

// Violates reports whether weight vector w violates the constraint
// (strictly prefers the loser).
func (c Constraint) Violates(w []float64) bool {
	s := 0.0
	for i, v := range c.Diff {
		s += v * w[i]
	}
	return s < 0
}

// Graph stores preferences over packages. Nodes are packages, numbered in
// order of first appearance; an edge u→v records u ≻ v. The graph is kept
// acyclic.
//
// The graph holds no geometry: a node is its package and nothing else, and
// Constraints derives each edge's half-space from whatever vector function
// the caller supplies. Under a live catalogue the engine keys nodes by
// *stable* catalogue IDs and passes the vectors of the epoch it samples
// in, so one stored graph reads consistently under any epoch. Every field
// is flat and pointer-free: no maps, strings or slice per node.
type Graph struct {
	ids   []int    // the nodes' item IDs, node after node
	off   []int32  // node u's IDs are ids[off[u]:off[u+1]]
	hash  []uint32 // each node's hash of its IDs
	edges []uint64 // every edge u→v as u<<32 | v, ascending
	// reach is the closure, words per node: bit v of row u is set iff u ⇝ v.
	reach []uint64
	words int
	// irredundant[u] counts u's out-edges not implied by a longer path;
	// reduced is their sum, the size of the transitive reduction.
	irredundant []int32
	reduced     int
}

// New returns an empty preference graph.
func New() *Graph { return &Graph{off: []int32{0}} }

// Edges returns the number of preference edges currently stored.
func (g *Graph) Edges() int { return len(g.edges) }

// ReducedEdges returns the number of edges the transitive reduction keeps:
// the length of Constraints(true, ·), read without deriving it.
func (g *Graph) ReducedEdges() int { return g.reduced }

func (g *Graph) pkg(u int) pkgspace.Package {
	return pkgspace.Package{IDs: g.ids[g.off[u]:g.off[u+1]:g.off[u+1]]}
}

// nodeID finds p's node by the hash of its IDs, confirmed by comparing
// them, or appends one. The scan is O(nodes), as is a closure update.
func (g *Graph) nodeID(p pkgspace.Package) int {
	h := uint32(len(p.IDs))
	for _, id := range p.IDs {
		h = (h ^ uint32(id)) * 16777619
	}
	for u, hu := range g.hash {
		if hu == h && slices.Equal(g.pkg(u).IDs, p.IDs) {
			return u
		}
	}
	u := len(g.hash)
	g.ids = append(g.ids, p.IDs...)
	g.off = append(g.off, int32(len(g.ids)))
	g.hash = append(g.hash, h)
	g.irredundant = append(g.irredundant, 0)
	if u == 64*g.words { // every row takes one more word
		reach := make([]uint64, 0, (u+1)*(g.words+1))
		for w := range u {
			reach = append(append(reach, g.row(w)...), 0)
		}
		g.reach, g.words = reach, g.words+1
	}
	g.reach = append(g.reach, make([]uint64, g.words)...)
	return u
}

func (g *Graph) row(u int) []uint64 { return g.reach[u*g.words : (u+1)*g.words] }

func (g *Graph) reaches(u, v int) bool { return g.reach[u*g.words+v/64]&(1<<(v%64)) != 0 }

// AddPreference records winner ≻ loser. It returns ErrCycle (and records
// nothing) if the preference contradicts the transitive closure of
// existing preferences. Duplicate preferences are no-ops.
func (g *Graph) AddPreference(winner, loser pkgspace.Package) error {
	if pkgspace.Equal(winner, loser) {
		return fmt.Errorf("%w %s", ErrSelfPreference, winner)
	}
	u, v := g.nodeID(winner), g.nodeID(loser)
	at, dup := slices.BinarySearch(g.edges, uint64(u)<<32|uint64(v))
	if dup {
		return nil
	}
	if g.reaches(v, u) {
		return fmt.Errorf("%w: %s ≻ %s contradicts recorded preferences", ErrCycle, winner, loser)
	}
	g.edges = slices.Insert(g.edges, at, uint64(u)<<32|uint64(v))
	// u and every node reaching it now reach v and all v reaches (never u).
	// Only their out-edges can change status: an edge a→b turns redundant
	// when some other successor of a comes to reach b, and it reaches u.
	for a := range g.hash {
		if a == u || g.reaches(a, u) {
			ra := g.row(a)
			ra[v/64] |= 1 << (v % 64)
			for i, x := range g.row(v) {
				ra[i] |= x
			}
		}
	}
	for a := range g.hash {
		if a == u || g.reaches(a, u) {
			out, n := g.targets(a), int32(0)
			for _, e := range out {
				if !g.redundant(out, int(uint32(e))) {
					n++
				}
			}
			g.reduced += int(n - g.irredundant[a])
			g.irredundant[a] = n
		}
	}
	return nil
}

// targets returns u's out-edges, in ascending target order.
func (g *Graph) targets(u int) []uint64 {
	lo, _ := slices.BinarySearch(g.edges, uint64(u)<<32)
	hi, _ := slices.BinarySearch(g.edges, uint64(u+1)<<32)
	return g.edges[lo:hi]
}

// redundant reports whether the edge to v among one node's out-edges is
// implied by a longer path: one leaving by another of them.
func (g *Graph) redundant(out []uint64, v int) bool {
	for _, e := range out {
		if w := int(uint32(e)); w != v && g.reaches(w, v) {
			return true
		}
	}
	return false
}

// Constraints materializes the current preference edges as half-space
// constraints, in deterministic (node-id) order, taking each package's
// normalized aggregate vector from vec (called once per node). With
// reduced=true, redundant edges (implied by transitivity, paper §3.3) are
// omitted via transitive reduction; the full set is returned otherwise.
// The graph itself is not modified.
func (g *Graph) Constraints(reduced bool, vec func(pkgspace.Package) []float64) []Constraint {
	return g.ConstraintsCached(reduced, &VectorCache{}, vec)
}

// VectorCache holds package vectors by graph node, in one flat slice.
type VectorCache struct {
	flat  []float64 // node u's vector is flat[u*d:(u+1)*d]
	nodes int
}

// ConstraintsCached is Constraints keeping the package vectors in vecs: a
// vector taken once is reused by every later call given the same cache.
// Nodes are only ever appended, so the cache stays valid for as long as
// vec's values do (one catalogue epoch's). Every Diff shares one backing
// array, and the Winner and Loser IDs alias the graph's.
func (g *Graph) ConstraintsCached(reduced bool, vecs *VectorCache, vec func(pkgspace.Package) []float64) []Constraint {
	n := len(g.edges)
	if reduced {
		n = g.reduced
	}
	for ; vecs.nodes < len(g.hash); vecs.nodes++ {
		vecs.flat = append(vecs.flat, vec(g.pkg(vecs.nodes))...)
	}
	d := len(vecs.flat) / max(vecs.nodes, 1)
	out, diffs := make([]Constraint, 0, n), make([]float64, n*d)
	for _, e := range g.edges {
		u, v := int(e>>32), int(uint32(e))
		if reduced && g.redundant(g.targets(u), v) {
			continue
		}
		diff := diffs[len(out)*d : (len(out)+1)*d : (len(out)+1)*d]
		for i := range diff {
			diff[i] = vecs.flat[u*d+i] - vecs.flat[v*d+i]
		}
		out = append(out, Constraint{Winner: g.pkg(u), Loser: g.pkg(v), Diff: diff})
	}
	return out
}

// Preferences enumerates every stored edge as (winner, loser) package
// pairs, in the same deterministic node order as Constraints — the
// portable form used by persistence. The IDs alias the graph's.
func (g *Graph) Preferences() [][2]pkgspace.Package {
	out := make([][2]pkgspace.Package, len(g.edges))
	for i, e := range g.edges {
		out[i] = [2]pkgspace.Package{g.pkg(int(e >> 32)), g.pkg(int(uint32(e)))}
	}
	return out
}
