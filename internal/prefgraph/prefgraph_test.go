package prefgraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"toppkg/internal/pkgspace"
)

func vec(xs ...float64) []float64 { return xs }

// vectors is a package→vector table usable as Constraints' vec function.
type vectors map[string][]float64

func (m vectors) of(p pkgspace.Package) []float64 { return m[p.Signature()] }

func TestAddPreferenceAndConstraint(t *testing.T) {
	g := New()
	a, b := pkgspace.New(0), pkgspace.New(1)
	if err := g.AddPreference(a, b); err != nil {
		t.Fatalf("AddPreference: %v", err)
	}
	cs := g.Constraints(false, vectors{a.Signature(): vec(0.8, 0.2), b.Signature(): vec(0.3, 0.5)}.of)
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
	if err := g.AddPreference(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPreference(a, b); err != nil {
		t.Fatalf("duplicate add errored: %v", err)
	}
	if g.Edges() != 1 {
		t.Errorf("Edges = %d, want 1", g.Edges())
	}
}

func TestSelfPreferenceRejected(t *testing.T) {
	g := New()
	a := pkgspace.New(0)
	if err := g.AddPreference(a, a); err == nil {
		t.Error("self preference accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a, b, c := pkgspace.New(0), pkgspace.New(1), pkgspace.New(2)
	if err := g.AddPreference(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPreference(b, c); err != nil {
		t.Fatal(err)
	}
	// c ≻ a closes a cycle a→b→c→a.
	err := g.AddPreference(c, a)
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
	vs := vectors{a.Signature(): vec(3.0), b.Signature(): vec(2.0), c.Signature(): vec(1.0)}
	for _, e := range [][2]pkgspace.Package{{a, b}, {b, c}, {a, c}} {
		if err := g.AddPreference(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	full := g.Constraints(false, vs.of)
	reduced := g.Constraints(true, vs.of)
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
		vs := vectors{}
		for i := range pkgs {
			pkgs[i] = pkgspace.New(i)
			vs[pkgs[i].Signature()] = vec(float64(n-i), r.Float64())
		}
		type edge struct{ u, v int }
		var edges []edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.4 {
					if err := g.AddPreference(pkgs[u], pkgs[v]); err != nil {
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
			for _, c := range g.Constraints(reduced, vs.of) {
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
		if err := g.AddPreference(pkgspace.New(0), pkgspace.New(1)); err != nil {
			return false
		}
		c := g.Constraints(false, vectors{"0": wv, "1": lv}.of)[0]
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

// TestConstraintsReadCallerVectors: the graph stores no geometry, so one
// graph read under two vector functions (two catalogue epochs) yields the
// same edges with each function's half-spaces, and vec runs once per node.
func TestConstraintsReadCallerVectors(t *testing.T) {
	g := New()
	a, b, c := pkgspace.New(10), pkgspace.New(20), pkgspace.New(30)
	for _, e := range [][2]pkgspace.Package{{a, b}, {a, c}, {c, b}} {
		if err := g.AddPreference(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, vs := range []vectors{
		{a.Signature(): vec(1, 0), b.Signature(): vec(0, 1), c.Signature(): vec(0.5, 0.5)},
		{a.Signature(): vec(0.5, 0.25), b.Signature(): vec(0, 0), c.Signature(): vec(0.25, 0)},
	} {
		calls := 0
		cs := g.Constraints(false, func(p pkgspace.Package) []float64 {
			calls++
			return vs.of(p)
		})
		if calls != len(g.Packages()) {
			t.Errorf("vec called %d times for %d nodes", calls, len(g.Packages()))
		}
		if len(cs) != 3 {
			t.Fatalf("%d constraints, want 3", len(cs))
		}
		for _, con := range cs {
			w, l := vs.of(con.Winner), vs.of(con.Loser)
			for i := range con.Diff {
				if con.Diff[i] != w[i]-l[i] {
					t.Fatalf("%s ≻ %s: Diff = %v, want the supplied vectors' difference", con.Winner, con.Loser, con.Diff)
				}
			}
		}
	}
}

// TestIncrementalClosureMatchesReference: preferences arrive in random
// order, cycles among them, and after every one the graph's cycle verdict,
// its reduced constraint set and ReducedEdges agree with a reference that
// recomputes the closure from the stored edges (Warshall) and keeps an
// edge u→v iff no other successor of u reaches v.
func TestIncrementalClosureMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		g := New()
		vs := vectors{}
		for i := 0; i < n; i++ {
			vs[pkgspace.New(i).Signature()] = vec(float64(i))
		}
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		closure := func() [][]bool {
			m := make([][]bool, n)
			for i := range m {
				m[i] = append([]bool(nil), adj[i]...)
			}
			for k := 0; k < n; k++ {
				for i := 0; i < n; i++ {
					if m[i][k] {
						for j := 0; j < n; j++ {
							m[i][j] = m[i][j] || m[k][j]
						}
					}
				}
			}
			return m
		}
		for step := 0; step < 3*n; step++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			wantCycle := closure()[v][u]
			err := g.AddPreference(pkgspace.New(u), pkgspace.New(v))
			if gotCycle := errors.Is(err, ErrCycle); gotCycle != wantCycle {
				t.Fatalf("seed %d step %d: %d≻%d cycle verdict %v, reference %v", seed, step, u, v, gotCycle, wantCycle)
			}
			if err == nil {
				adj[u][v] = true
			}
			m := closure()
			want := map[[2]int]bool{}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if !adj[a][b] {
						continue
					}
					implied := false
					for w := 0; w < n; w++ {
						implied = implied || (w != b && adj[a][w] && m[w][b])
					}
					if !implied {
						want[[2]int{a, b}] = true
					}
				}
			}
			got := g.Constraints(true, vs.of)
			if len(got) != len(want) || g.ReducedEdges() != len(want) {
				t.Fatalf("seed %d step %d: reduced %d, ReducedEdges %d, reference %d", seed, step, len(got), g.ReducedEdges(), len(want))
			}
			for _, c := range got {
				if !want[[2]int{c.Winner.IDs[0], c.Loser.IDs[0]}] {
					t.Fatalf("seed %d step %d: kept %s≻%s, which a longer path implies", seed, step, c.Winner, c.Loser)
				}
			}
		}
	}
}
