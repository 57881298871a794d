package sampling

import (
	"errors"
	"math/rand"
	"testing"

	"toppkg/internal/gaussmix"
	"toppkg/internal/prefgraph"
)

// consistentConstraints returns m random half-spaces in d dimensions that
// a hidden vector drawn from N(0, 0.5²) satisfies strictly, so their cone
// has an interior point.
func consistentConstraints(rng *rand.Rand, d, m int) []prefgraph.Constraint {
	hidden := make([]float64, d)
	for j := range hidden {
		hidden[j] = 0.5 * rng.NormFloat64()
	}
	var cs []prefgraph.Constraint
	for len(cs) < m {
		diff := make([]float64, d)
		dot := 0.0
		for j := range diff {
			diff[j] = rng.Float64()*2 - 1
			dot += diff[j] * hidden[j]
		}
		if dot == 0 {
			continue
		}
		if dot < 0 {
			for j := range diff {
				diff[j] = -diff[j]
			}
		}
		cs = append(cs, constraint(diff...))
	}
	return cs
}

// contradicted appends the reverse of cs[0] to cs: the cone shrinks to a
// hyperplane and has no interior point.
func contradicted(cs []prefgraph.Constraint) []prefgraph.Constraint {
	rev := make([]float64, len(cs[0].Diff))
	for j, x := range cs[0].Diff {
		rev[j] = -x
	}
	return append(append([]prefgraph.Constraint(nil), cs...), constraint(rev...))
}

// TestInteriorDecidesFeasibility: interior finds a strictly interior box
// point for random consistent sets of up to 120 constraints in 2–10
// dimensions, ignores zero half-spaces, and reports none for a set holding
// a constraint and its reverse or three half-planes whose normals
// positively span the plane.
func TestInteriorDecidesFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(9)
		cs := consistentConstraints(rng, d, 1+rng.Intn(120))
		if trial%3 == 0 {
			cs = append(cs, constraint(make([]float64, d)...))
		}
		w, ok := interior(d, cs)
		if !ok {
			t.Fatalf("trial %d: no interior point found for a consistent set of %d in %d dims", trial, len(cs), d)
		}
		v := NewValidator(d, cs)
		if !v.Valid(w, nil) {
			t.Fatalf("trial %d: interior point %v invalid", trial, w)
		}
		for _, c := range cs {
			if dot := dotDiff(c, w); dot <= 0 && !zero(c.Diff) {
				t.Fatalf("trial %d: interior point on a face (w·Diff = %g)", trial, dot)
			}
		}
		if _, ok := interior(d, contradicted(cs)); ok {
			t.Fatalf("trial %d: interior point found for a set holding a constraint and its reverse", trial)
		}
	}
	spanning := []prefgraph.Constraint{constraint(1, 0), constraint(-0.5, 0.8), constraint(-0.5, -0.8)}
	if w, ok := interior(2, spanning); ok {
		t.Fatalf("interior point %v for half-planes whose normals span the plane", w)
	}
}

func dotDiff(c prefgraph.Constraint, w []float64) float64 {
	s := 0.0
	for j, x := range c.Diff {
		s += x * w[j]
	}
	return s
}

func zero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestDrawRejectsWhileItPays: with no constraint every prior draw inside
// the box is accepted, so Draw never runs the chain: its samples are
// distinct and its attempts stay below the chain's mcmcThin per sample.
func TestDrawRejectsWhileItPays(t *testing.T) {
	const n = 500
	res, err := Draw(prior(5), NewValidator(5, nil), rand.New(rand.NewSource(4)), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != n || res.Attempts >= mcmcThin*n/2 {
		t.Fatalf("%d samples after %d attempts", len(res.Samples), res.Attempts)
	}
	for i := 1; i < n; i++ {
		if res.Samples[i].W[0] == res.Samples[i-1].W[0] {
			t.Fatalf("samples %d and %d repeat: a chain ran", i-1, i)
		}
	}
}

// TestDrawFailsFastWithoutInterior: under ψ = 1 a set whose cone has no
// interior point fails with ErrTooManyRejections after at most the
// rejection phase's mcmcThin blind draws; under ψ = 0.9 the same set has a
// target, and Draw returns it n valid samples.
func TestDrawFailsFastWithoutInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		cs := contradicted(consistentConstraints(rng, 5, 1+rng.Intn(20)))
		v := NewValidator(5, cs)
		res, err := Draw(prior(5), v, rng, 10)
		if !errors.Is(err, ErrTooManyRejections) || res.Attempts > mcmcThin {
			t.Fatalf("trial %d: Draw = %v after %d attempts, want a fast ErrTooManyRejections", trial, err, res.Attempts)
		}
		v.Psi = 0.9
		res, err = Draw(prior(5), v, rng, 10)
		if err != nil || len(res.Samples) != 10 {
			t.Fatalf("trial %d: noisy Draw = %d samples, %v", trial, len(res.Samples), err)
		}
		for _, s := range res.Samples {
			if !v.InBox(s.W) {
				t.Fatalf("trial %d: sample %v outside the box", trial, s.W)
			}
		}
	}
}

// BenchmarkDraw times one sampler run as the engine makes it, in the
// serving shape (5 features, the origin-centred prior): a fresh pool of 30
// under no feedback, 10 replacements under 5 and under 20 consistent
// constraints at ψ 1 and at ψ 0.9, and 10 replacements under a
// contradicted set (a constraint and its reverse) at both ψ. At ψ 1 the
// contradicted draw is the fail-fast path: it returns ErrTooManyRejections.
//
//	go test -run '^$' -bench '^BenchmarkDraw$' ./internal/sampling
func BenchmarkDraw(b *testing.B) {
	const d = 5
	p := gaussmix.DefaultPrior(d, 1, rand.New(rand.NewSource(1)))
	cs20 := consistentConstraints(rand.New(rand.NewSource(2)), d, 20)
	cases := []struct {
		name string
		cs   []prefgraph.Constraint
		psi  float64
		n    int
	}{
		{"fresh", nil, 1, 30},
		{"replace5/psi1", cs20[:5], 1, 10},
		{"replace5/psi0.9", cs20[:5], 0.9, 10},
		{"replace20/psi1", cs20, 1, 10},
		{"replace20/psi0.9", cs20, 0.9, 10},
		{"contradicted/psi1", contradicted(cs20[:5]), 1, 10},
		{"contradicted/psi0.9", contradicted(cs20[:5]), 0.9, 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			v := NewValidator(d, c.cs)
			v.Psi = c.psi
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Draw(p, v, rng, c.n); err != nil && !errors.Is(err, ErrTooManyRejections) {
					b.Fatal(err)
				}
			}
		})
	}
}
