// Package prefgraph maintains the set of pairwise package preferences
// elicited from a user as a directed acyclic graph, detects cycles, and
// omits redundant preferences from the constraint set via transitive
// reduction (paper §3.3,
// using the Aho–Garey–Ullman construction [2]). The reduced edge set is the
// constraint set samplers check, so reduction directly cuts per-sample
// validation cost ("pruning" in Figure 5).
package prefgraph

import (
	"errors"
	"fmt"

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
// Under a live catalogue the engine keys nodes by *stable* catalogue IDs,
// so the same inventory seen under two epochs is one node even when its
// dense positions moved. Each node carries the catalogue epoch its vector
// was last computed under: when feedback arrives for an already-known
// package under a newer epoch, AddPreferenceAt refreshes the stored vector
// from the new space instead of reusing the stale one, so the constraints
// the samplers check always reflect the most recent geometry a package was
// observed in.
type Graph struct {
	nodes []node
	index map[string]int // signature → node id
	out   []map[int]bool // adjacency: out[u][v] == true iff edge u→v
	edges int
}

type node struct {
	pkg   pkgspace.Package
	vec   []float64
	epoch uint64 // catalogue epoch vec was computed under
}

// New returns an empty preference graph.
func New() *Graph {
	return &Graph{index: make(map[string]int)}
}

// Len returns the number of distinct packages recorded.
func (g *Graph) Len() int { return len(g.nodes) }

// Edges returns the number of preference edges currently stored.
func (g *Graph) Edges() int { return g.edges }

func (g *Graph) nodeID(epoch uint64, p pkgspace.Package, vec []float64) (id int, refreshed bool) {
	sig := p.Signature()
	if id, ok := g.index[sig]; ok {
		if n := &g.nodes[id]; epoch > n.epoch {
			// The package resurfaced under a newer epoch: its aggregate
			// vector was recomputed against that epoch's space, so the
			// stale one goes. (The package itself cannot differ — equal
			// signatures mean equal stable member IDs.) Every edge touching
			// this node now derives its constraint from the new geometry.
			n.vec = append([]float64(nil), vec...)
			n.epoch = epoch
			refreshed = true
		}
		return id, refreshed
	}
	id = len(g.nodes)
	g.nodes = append(g.nodes, node{pkg: p, vec: append([]float64(nil), vec...), epoch: epoch})
	g.out = append(g.out, make(map[int]bool))
	g.index[sig] = id
	return id, false
}

// AddPreference records winner ≻ loser, given the packages' normalized
// aggregate vectors. It returns ErrCycle (and records nothing) if the
// preference contradicts the transitive closure of existing preferences.
// Duplicate preferences are no-ops. Equivalent to AddPreferenceAt under
// epoch 0 — the static-catalogue case, where refreshes cannot happen.
func (g *Graph) AddPreference(winner pkgspace.Package, winnerVec []float64, loser pkgspace.Package, loserVec []float64) error {
	_, err := g.AddPreferenceAt(0, winner, winnerVec, loser, loserVec)
	return err
}

// AddPreferenceAt records winner ≻ loser observed under the given
// catalogue epoch. Nodes already known from an older epoch have their
// stored vector refreshed to the newer observation (a vector from a newer
// epoch is never downgraded by late-arriving old feedback); refreshed
// reports whether that happened, because a refresh rewrites the
// constraints of EVERY edge touching the node — callers maintaining
// derived state (like a sample pool checked against the constraint set)
// must rebuild it rather than apply just the new edge. A refresh is
// reported even when the edge itself is a duplicate or a cycle: the
// vector update has already happened by then.
func (g *Graph) AddPreferenceAt(epoch uint64, winner pkgspace.Package, winnerVec []float64, loser pkgspace.Package, loserVec []float64) (refreshed bool, err error) {
	if winner.Signature() == loser.Signature() {
		return false, fmt.Errorf("%w %s", ErrSelfPreference, winner)
	}
	u, ru := g.nodeID(epoch, winner, winnerVec)
	v, rv := g.nodeID(epoch, loser, loserVec)
	refreshed = ru || rv
	if g.out[u][v] {
		return refreshed, nil
	}
	if g.reachable(v, u, -1, -1) {
		return refreshed, fmt.Errorf("%w: %s ≻ %s contradicts recorded preferences", ErrCycle, winner, loser)
	}
	g.out[u][v] = true
	g.edges++
	return refreshed, nil
}

// reachable reports whether dst is reachable from src, optionally ignoring
// the single edge banU→banV (pass -1,-1 for none).
func (g *Graph) reachable(src, dst, banU, banV int) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range g.out[u] {
			if u == banU && v == banV {
				continue
			}
			if v == dst {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// Constraints materializes the current preference edges as half-space
// constraints, in deterministic (node-id) order. With reduced=true,
// redundant edges (implied by transitivity, paper §3.3) are omitted via
// transitive reduction; the full set is returned otherwise. The graph
// itself is not modified.
func (g *Graph) Constraints(reduced bool) []Constraint {
	var out []Constraint
	for u := range g.out {
		targets := make([]int, 0, len(g.out[u]))
		for v := range g.out[u] {
			targets = append(targets, v)
		}
		sortInts(targets)
		for _, v := range targets {
			if reduced && g.redundant(u, v) {
				continue
			}
			out = append(out, g.constraint(u, v))
		}
	}
	return out
}

func (g *Graph) constraint(u, v int) Constraint {
	nu, nv := g.nodes[u], g.nodes[v]
	diff := make([]float64, len(nu.vec))
	for i := range diff {
		diff[i] = nu.vec[i] - nv.vec[i]
	}
	return Constraint{Winner: nu.pkg, Loser: nv.pkg, Diff: diff}
}

// redundant reports whether edge u→v is implied by a longer path u⇝v.
func (g *Graph) redundant(u, v int) bool {
	return g.reachable(u, v, u, v)
}

// Preferences enumerates every stored edge as (winner, loser) package
// pairs, in deterministic node order — the portable form used by
// persistence (vectors are recomputed from the item space on restore).
func (g *Graph) Preferences() [][2]pkgspace.Package {
	out := make([][2]pkgspace.Package, 0, g.edges)
	for u := range g.out {
		// Deterministic order over map targets.
		targets := make([]int, 0, len(g.out[u]))
		for v := range g.out[u] {
			targets = append(targets, v)
		}
		sortInts(targets)
		for _, v := range targets {
			out = append(out, [2]pkgspace.Package{g.nodes[u].pkg, g.nodes[v].pkg})
		}
	}
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
