package prefgraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"toppkg/internal/pkgspace"
)

// TestGraphMatchesMapOracle feeds the flat Graph and refGraph, the
// map-based graph it replaced, the same random preference streams over
// small package sets (duplicates, self-preferences and cycles among them)
// and after every call requires equal errors, Edges, ReducedEdges,
// Preferences, and Constraints in both modes: order, packages and Diff
// bits, fresh and through a cache kept across calls, with as many vector
// calls. The larger sets cross the closure's 64- and 128-node row widths.
func TestGraphMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		nPkgs, steps := 2+r.Intn(12), 5+r.Intn(60)
		if seed%10 == 9 {
			nPkgs, steps = 140+r.Intn(40), 250
		}
		pkgs := make([]pkgspace.Package, nPkgs)
		for i := range pkgs {
			ids := make([]int, 1+r.Intn(3))
			for j := range ids {
				ids[j] = r.Intn(2 * nPkgs)
			}
			pkgs[i] = pkgspace.New(ids...)
		}
		g, ref := New(), newRef()
		var cache VectorCache
		var refCache [][]float64
		for step := 0; step < steps; step++ {
			w, l := pkgs[r.Intn(nPkgs)], pkgs[r.Intn(nPkgs)]
			at := fmt.Sprintf("seed %d step %d (%s ≻ %s)", seed, step, w, l)
			err, refErr := g.AddPreference(w, l), ref.AddPreference(w, l)
			if fmt.Sprint(err) != fmt.Sprint(refErr) || errors.Is(err, ErrCycle) != errors.Is(refErr, ErrCycle) ||
				errors.Is(err, ErrSelfPreference) != errors.Is(refErr, ErrSelfPreference) {
				t.Fatalf("%s: error %v, oracle %v", at, err, refErr)
			}
			if g.Edges() != ref.Edges() || g.ReducedEdges() != ref.ReducedEdges() {
				t.Fatalf("%s: %d edges, %d reduced; oracle %d, %d", at, g.Edges(), g.ReducedEdges(), ref.Edges(), ref.ReducedEdges())
			}
			prefs, refPrefs := g.Preferences(), ref.Preferences()
			if !slices.EqualFunc(prefs, refPrefs, func(a, b [2]pkgspace.Package) bool {
				return slices.Equal(a[0].IDs, b[0].IDs) && slices.Equal(a[1].IDs, b[1].IDs)
			}) {
				t.Fatalf("%s: preferences %v, oracle %v", at, prefs, refPrefs)
			}
			for _, reduced := range []bool{false, true} {
				calls, refCalls := 0, 0
				got := g.ConstraintsCached(reduced, &cache, countedVec(&calls))
				want := ref.ConstraintsCached(reduced, &refCache, countedVec(&refCalls))
				sameConstraints(t, at, got, want)
				sameConstraints(t, at, g.Constraints(reduced, oracleVec), ref.Constraints(reduced, oracleVec))
				if calls != refCalls {
					t.Fatalf("%s: reduced %v took %d vectors, oracle %d", at, reduced, calls, refCalls)
				}
			}
		}
	}
}

// oracleVec is a fixed 3-dimensional vector per package.
func oracleVec(p pkgspace.Package) []float64 {
	v := []float64{0.25, -0.5, 1}
	for _, id := range p.IDs {
		for i := range v {
			v[i] = math.Sin(v[i]*7.1 + float64(id*(i+3)))
		}
	}
	return v
}

func countedVec(calls *int) func(pkgspace.Package) []float64 {
	return func(p pkgspace.Package) []float64 {
		*calls++
		return oracleVec(p)
	}
}

func sameConstraints(t *testing.T, at string, got, want []Constraint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d constraints, oracle %d", at, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Winner.IDs, w.Winner.IDs) || !slices.Equal(g.Loser.IDs, w.Loser.IDs) ||
			!slices.EqualFunc(g.Diff, w.Diff, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: constraint %d is %s ≻ %s %v, oracle %s ≻ %s %v", at, i, g.Winner, g.Loser, g.Diff, w.Winner, w.Loser, w.Diff)
		}
	}
}

// refGraph is the map-based preference graph the flat Graph replaced, kept
// as the oracle it must match call for call.
//
// refGraph stores preferences over packages. Nodes are packages (keyed by
// signature); an edge u→v records u ≻ v. The graph is kept acyclic.
//
// The graph holds no geometry: a node is its package and nothing else, and
// Constraints derives each edge's half-space from whatever vector function
// the caller supplies. Under a live catalogue the engine keys nodes by
// *stable* catalogue IDs and passes the vectors of the epoch it samples
// in, so one stored graph reads consistently under any epoch.
type refGraph struct {
	nodes []pkgspace.Package
	index map[string]int // signature → node id
	out   []map[int]bool // adjacency: out[u][v] == true iff edge u→v
	// reach[u] is the set of nodes reachable from u by one edge or more:
	// the transitive closure, kept up to date by AddPreference.
	reach []refBitset
	// irredundant[u] counts u's out-edges not implied by a longer path;
	// reduced is their sum, the size of the transitive reduction.
	irredundant []int
	edges       int
	reduced     int
}

// refBitset is a growable set of node ids.
type refBitset []uint64

func (b refBitset) has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0 }

func (b refBitset) with(i int) refBitset {
	for len(b) <= i/64 {
		b = append(b, 0)
	}
	b[i/64] |= 1 << (i % 64)
	return b
}

func (b refBitset) union(o refBitset) refBitset {
	for len(b) < len(o) {
		b = append(b, 0)
	}
	for i, w := range o {
		b[i] |= w
	}
	return b
}

// newRef returns an empty reference graph.
func newRef() *refGraph {
	return &refGraph{index: make(map[string]int)}
}

// Edges returns the number of preference edges currently stored.
func (g *refGraph) Edges() int { return g.edges }

// ReducedEdges returns the number of edges the transitive reduction keeps:
// the length of Constraints(true, ·), read without deriving it.
func (g *refGraph) ReducedEdges() int { return g.reduced }

// Packages returns the recorded packages in node order (do not mutate).
func (g *refGraph) Packages() []pkgspace.Package { return g.nodes }

func (g *refGraph) nodeID(p pkgspace.Package) int {
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
func (g *refGraph) AddPreference(winner, loser pkgspace.Package) error {
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
func (g *refGraph) Constraints(reduced bool, vec func(pkgspace.Package) []float64) []Constraint {
	var vecs [][]float64
	return g.ConstraintsCached(reduced, &vecs, vec)
}

// ConstraintsCached is Constraints keeping the package vectors in *vecs,
// indexed by node: a vector taken once is reused by every later call given
// the same cache. Nodes are only ever appended, so the cache stays valid
// for as long as vec's values do (one catalogue epoch's).
func (g *refGraph) ConstraintsCached(reduced bool, vecs *[][]float64, vec func(pkgspace.Package) []float64) []Constraint {
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
func (g *refGraph) targets(u int) []int {
	ts := make([]int, 0, len(g.out[u]))
	for v := range g.out[u] {
		ts = append(ts, v)
	}
	slices.Sort(ts)
	return ts
}

// redundant reports whether edge u→v is implied by a longer path u⇝v: one
// leaving u by another edge.
func (g *refGraph) redundant(u, v int) bool {
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
func (g *refGraph) Preferences() [][2]pkgspace.Package {
	out := make([][2]pkgspace.Package, 0, g.edges)
	for u := range g.out {
		for _, v := range g.targets(u) {
			out = append(out, [2]pkgspace.Package{g.nodes[u], g.nodes[v]})
		}
	}
	return out
}
