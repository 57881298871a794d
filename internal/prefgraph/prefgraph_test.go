package prefgraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"toppkg/internal/pkgspace"
)

func vec(xs ...float64) []float64 { return xs }

// storedNode returns the stored vector and epoch of a recorded package.
func storedNode(t *testing.T, g *Graph, p pkgspace.Package) ([]float64, uint64) {
	t.Helper()
	id, ok := g.index[p.Signature()]
	if !ok {
		t.Fatalf("package %s not recorded", p)
	}
	return g.nodes[id].vec, g.nodes[id].epoch
}

func TestAddPreferenceAndConstraint(t *testing.T) {
	g := New()
	a, b := pkgspace.New(0), pkgspace.New(1)
	if err := g.AddPreference(a, vec(0.8, 0.2), b, vec(0.3, 0.5)); err != nil {
		t.Fatalf("AddPreference: %v", err)
	}
	cs := g.Constraints(false)
	if len(cs) != 1 {
		t.Fatalf("constraints = %d, want 1", len(cs))
	}
	c := cs[0]
	if c.Diff[0] != 0.5 || c.Diff[1] != -0.3 {
		t.Errorf("Diff = %v, want (0.5, -0.3)", c.Diff)
	}
	// w = (1, 0): w·diff = 0.5 ≥ 0 → consistent.
	if c.Violates(vec(1, 0)) {
		t.Error("consistent w flagged as violating")
	}
	// w = (0, 1): w·diff = -0.3 < 0 → violates.
	if !c.Violates(vec(0, 1)) {
		t.Error("violating w not flagged")
	}
}

func TestDuplicateEdgeNoOp(t *testing.T) {
	g := New()
	a, b := pkgspace.New(0), pkgspace.New(1)
	va, vb := vec(1.0), vec(0.0)
	if err := g.AddPreference(a, va, b, vb); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPreference(a, va, b, vb); err != nil {
		t.Fatalf("duplicate add errored: %v", err)
	}
	if g.Edges() != 1 {
		t.Errorf("Edges = %d, want 1", g.Edges())
	}
}

func TestSelfPreferenceRejected(t *testing.T) {
	g := New()
	a := pkgspace.New(0)
	if err := g.AddPreference(a, vec(1.0), a, vec(1.0)); err == nil {
		t.Error("self preference accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a, b, c := pkgspace.New(0), pkgspace.New(1), pkgspace.New(2)
	va, vb, vc := vec(3.0), vec(2.0), vec(1.0)
	if err := g.AddPreference(a, va, b, vb); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPreference(b, vb, c, vc); err != nil {
		t.Fatal(err)
	}
	// c ≻ a closes a cycle a→b→c→a.
	err := g.AddPreference(c, vc, a, va)
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle not detected: %v", err)
	}
	if g.Edges() != 2 {
		t.Errorf("cycle add mutated graph: edges = %d", g.Edges())
	}
}

// TestTransitiveReduction: a ≻ b, b ≻ c, a ≻ c — the last is redundant.
func TestTransitiveReduction(t *testing.T) {
	g := New()
	a, b, c := pkgspace.New(0), pkgspace.New(1), pkgspace.New(2)
	va, vb, vc := vec(3.0), vec(2.0), vec(1.0)
	for _, e := range [][2]struct {
		p pkgspace.Package
		v []float64
	}{
		{{a, va}, {b, vb}},
		{{b, vb}, {c, vc}},
		{{a, va}, {c, vc}},
	} {
		if err := g.AddPreference(e[0].p, e[0].v, e[1].p, e[1].v); err != nil {
			t.Fatal(err)
		}
	}
	full := g.Constraints(false)
	reduced := g.Constraints(true)
	if len(full) != 3 || len(reduced) != 2 {
		t.Fatalf("full=%d reduced=%d, want 3 and 2", len(full), len(reduced))
	}
	// The graph itself is untouched by Constraints.
	if g.Edges() != 3 {
		t.Errorf("Constraints mutated graph: %d edges", g.Edges())
	}
}

// TestReductionPreservesReachability: the reduced constraint set must have
// the same transitive closure as the full one — the core §3.3 guarantee
// that pruned constraints are implied.
func TestReductionPreservesReachability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		// Random DAG over a fixed topological order 0..n-1.
		g := New()
		pkgs := make([]pkgspace.Package, n)
		vecs := make([][]float64, n)
		for i := range pkgs {
			pkgs[i] = pkgspace.New(i)
			vecs[i] = vec(float64(n-i), r.Float64())
		}
		type edge struct{ u, v int }
		var edges []edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.4 {
					if err := g.AddPreference(pkgs[u], vecs[u], pkgs[v], vecs[v]); err != nil {
						return false
					}
					edges = append(edges, edge{u, v})
				}
			}
		}
		reach := func(reduced bool) [][]bool {
			m := make([][]bool, n)
			adj := make([][]bool, n)
			for i := range m {
				m[i] = make([]bool, n)
				adj[i] = make([]bool, n)
			}
			for _, c := range g.Constraints(reduced) {
				adj[c.Winner.IDs[0]][c.Loser.IDs[0]] = true
			}
			for k := 0; k < n; k++ {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if adj[i][j] || (i == j) {
							m[i][j] = true
						}
					}
				}
			}
			// Warshall.
			for k := 0; k < n; k++ {
				for i := 0; i < n; i++ {
					if m[i][k] {
						for j := 0; j < n; j++ {
							if m[k][j] {
								m[i][j] = true
							}
						}
					}
				}
			}
			return m
		}
		before := reach(false)
		after := reach(true)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if before[i][j] != after[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: constraints derived from a preference are satisfied by any
// weight vector that scores the winner at least as high as the loser.
func TestConstraintConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		wv := make([]float64, d)
		lv := make([]float64, d)
		w := make([]float64, d)
		for i := 0; i < d; i++ {
			wv[i] = r.Float64()
			lv[i] = r.Float64()
			w[i] = r.Float64()*2 - 1
		}
		g := New()
		if err := g.AddPreference(pkgspace.New(0), wv, pkgspace.New(1), lv); err != nil {
			return false
		}
		c := g.Constraints(false)[0]
		dotW, dotL := 0.0, 0.0
		for i := 0; i < d; i++ {
			dotW += w[i] * wv[i]
			dotL += w[i] * lv[i]
		}
		return c.Violates(w) == (dotW < dotL)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEpochVectorRefresh: a package re-encountered under a newer catalogue
// epoch refreshes its stored vector (and the constraints derived from
// every edge touching it), while stale feedback from an older epoch never
// downgrades a newer vector.
func TestEpochVectorRefresh(t *testing.T) {
	g := New()
	a, b, c := pkgspace.New(10), pkgspace.New(20), pkgspace.New(30)
	if refreshed, err := g.AddPreferenceAt(1, a, []float64{1, 0}, b, []float64{0, 1}); err != nil || refreshed {
		t.Fatalf("first feedback: refreshed=%v err=%v", refreshed, err)
	}
	if vec, epoch := storedNode(t, g, a); epoch != 1 || vec[0] != 1 {
		t.Fatalf("node a = (%v, %d) after epoch-1 feedback", vec, epoch)
	}

	// Epoch 2 reprices a: feedback touching it refreshes the vector, and
	// the OLD edge a≻b now derives its constraint from the new geometry.
	if refreshed, err := g.AddPreferenceAt(2, a, []float64{0.5, 0.25}, c, []float64{0, 0}); err != nil || !refreshed {
		t.Fatalf("epoch-2 feedback on a known package: refreshed=%v err=%v, want a reported refresh", refreshed, err)
	}
	if vec, epoch := storedNode(t, g, a); epoch != 2 || vec[0] != 0.5 || vec[1] != 0.25 {
		t.Fatalf("node a = (%v, %d): epoch-2 feedback did not refresh the vector", vec, epoch)
	}
	cs := g.Constraints(false)
	found := false
	for _, con := range cs {
		if con.Winner.Signature() == a.Signature() && con.Loser.Signature() == b.Signature() {
			found = true
			if con.Diff[0] != 0.5 || con.Diff[1] != 0.25-1 {
				t.Fatalf("edge a≻b constraint %v still uses the epoch-1 vector", con.Diff)
			}
		}
	}
	if !found {
		t.Fatal("edge a≻b missing")
	}

	// Late-arriving epoch-1 feedback must not roll the vector back.
	if refreshed, err := g.AddPreferenceAt(1, a, []float64{9, 9}, b, []float64{0, 1}); err != nil || refreshed {
		t.Fatalf("stale epoch-1 feedback: refreshed=%v err=%v, want no refresh", refreshed, err)
	}
	if vec, epoch := storedNode(t, g, a); epoch != 2 || vec[0] != 0.5 {
		t.Fatalf("node a = (%v, %d): stale epoch-1 feedback downgraded the vector", vec, epoch)
	}

	// Same-epoch duplicates keep the first observation (no spurious churn).
	if refreshed, err := g.AddPreferenceAt(2, a, []float64{7, 7}, c, []float64{0, 0}); err != nil || refreshed {
		t.Fatalf("same-epoch duplicate: refreshed=%v err=%v, want no refresh", refreshed, err)
	}
	if vec, _ := storedNode(t, g, a); vec[0] != 0.5 {
		t.Fatalf("node a vector %v rewritten by same-epoch duplicate", vec)
	}
}
