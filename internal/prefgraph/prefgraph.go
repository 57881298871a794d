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

// Graph stores preferences over packages. Nodes are packages (keyed by
// signature); an edge u→v records u ≻ v. The graph is kept acyclic.
//
// The graph holds no geometry: a node is its package and nothing else, and
// Constraints derives each edge's half-space from whatever vector function
// the caller supplies. Under a live catalogue the engine keys nodes by
// *stable* catalogue IDs and passes the vectors of the epoch it samples
// in, so one stored graph reads consistently under any epoch.
type Graph struct {
	nodes []pkgspace.Package
	index map[string]int // signature → node id
	out   []map[int]bool // adjacency: out[u][v] == true iff edge u→v
	// reach[u] is the set of nodes reachable from u by one edge or more:
	// the transitive closure, kept up to date by AddPreference.
	reach []bitset
	// irredundant[u] counts u's out-edges not implied by a longer path;
	// reduced is their sum, the size of the transitive reduction.
	irredundant []int
	edges       int
	reduced     int
}

// bitset is a growable set of node ids.
type bitset []uint64

func (b bitset) has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) with(i int) bitset {
	for len(b) <= i/64 {
		b = append(b, 0)
	}
	b[i/64] |= 1 << (i % 64)
	return b
}

func (b bitset) union(o bitset) bitset {
	for len(b) < len(o) {
		b = append(b, 0)
	}
	for i, w := range o {
		b[i] |= w
	}
	return b
}

// New returns an empty preference graph.
func New() *Graph {
	return &Graph{index: make(map[string]int)}
}

// Edges returns the number of preference edges currently stored.
func (g *Graph) Edges() int { return g.edges }

// ReducedEdges returns the number of edges the transitive reduction keeps:
// the length of Constraints(true, ·), read without deriving it.
func (g *Graph) ReducedEdges() int { return g.reduced }

// Packages returns the recorded packages in node order (do not mutate).
func (g *Graph) Packages() []pkgspace.Package { return g.nodes }

func (g *Graph) nodeID(p pkgspace.Package) int {
	sig := p.Signature()
	if id, ok := g.index[sig]; ok {
		return id
	}
	id := len(g.nodes)
	g.nodes = append(g.nodes, p)
	g.out = append(g.out, make(map[int]bool))
	g.reach = append(g.reach, nil)
	g.irredundant = append(g.irredundant, 0)
	g.index[sig] = id
	return id
}

// AddPreference records winner ≻ loser. It returns ErrCycle (and records
// nothing) if the preference contradicts the transitive closure of
// existing preferences. Duplicate preferences are no-ops.
func (g *Graph) AddPreference(winner, loser pkgspace.Package) error {
	if pkgspace.Equal(winner, loser) {
		return fmt.Errorf("%w %s", ErrSelfPreference, winner)
	}
	u, v := g.nodeID(winner), g.nodeID(loser)
	if g.out[u][v] {
		return nil
	}
	if g.reach[v].has(u) {
		return fmt.Errorf("%w: %s ≻ %s contradicts recorded preferences", ErrCycle, winner, loser)
	}
	g.out[u][v] = true
	g.edges++
	// u and every node reaching it now reach v and all v reaches. Only their
	// out-edges can change status: an edge a→b turns redundant when some
	// other successor of a comes to reach b, and that successor reaches u.
	var closed []int
	for a := range g.nodes {
		if a == u || g.reach[a].has(u) {
			g.reach[a] = g.reach[a].with(v).union(g.reach[v])
			closed = append(closed, a)
		}
	}
	for _, a := range closed {
		n := 0
		for b := range g.out[a] {
			if !g.redundant(a, b) {
				n++
			}
		}
		g.reduced += n - g.irredundant[a]
		g.irredundant[a] = n
	}
	return nil
}

// Constraints materializes the current preference edges as half-space
// constraints, in deterministic (node-id) order, taking each package's
// normalized aggregate vector from vec (called at most once per node).
// With reduced=true, redundant edges (implied by transitivity, paper §3.3)
// are omitted via transitive reduction; the full set is returned
// otherwise. The graph itself is not modified.
func (g *Graph) Constraints(reduced bool, vec func(pkgspace.Package) []float64) []Constraint {
	var vecs [][]float64
	return g.ConstraintsCached(reduced, &vecs, vec)
}

// ConstraintsCached is Constraints keeping the package vectors in *vecs,
// indexed by node: a vector taken once is reused by every later call given
// the same cache. Nodes are only ever appended, so the cache stays valid
// for as long as vec's values do (one catalogue epoch's).
func (g *Graph) ConstraintsCached(reduced bool, vecs *[][]float64, vec func(pkgspace.Package) []float64) []Constraint {
	if n := len(g.nodes) - len(*vecs); n > 0 {
		*vecs = append(*vecs, make([][]float64, n)...)
	}
	cache := *vecs
	vecOf := func(u int) []float64 {
		if cache[u] == nil {
			cache[u] = vec(g.nodes[u])
		}
		return cache[u]
	}
	var out []Constraint
	for u := range g.out {
		for _, v := range g.targets(u) {
			if reduced && g.redundant(u, v) {
				continue
			}
			vu, vv := vecOf(u), vecOf(v)
			diff := make([]float64, len(vu))
			for i := range diff {
				diff[i] = vu[i] - vv[i]
			}
			out = append(out, Constraint{Winner: g.nodes[u], Loser: g.nodes[v], Diff: diff})
		}
	}
	return out
}

// targets lists u's successors in ascending node order.
func (g *Graph) targets(u int) []int {
	ts := make([]int, 0, len(g.out[u]))
	for v := range g.out[u] {
		ts = append(ts, v)
	}
	slices.Sort(ts)
	return ts
}

// redundant reports whether edge u→v is implied by a longer path u⇝v: one
// leaving u by another edge.
func (g *Graph) redundant(u, v int) bool {
	for w := range g.out[u] {
		if w != v && g.reach[w].has(v) {
			return true
		}
	}
	return false
}

// Preferences enumerates every stored edge as (winner, loser) package
// pairs, in the same deterministic node order as Constraints — the
// portable form used by persistence.
func (g *Graph) Preferences() [][2]pkgspace.Package {
	out := make([][2]pkgspace.Package, 0, g.edges)
	for u := range g.out {
		for _, v := range g.targets(u) {
			out = append(out, [2]pkgspace.Package{g.nodes[u], g.nodes[v]})
		}
	}
	return out
}
