package core

import (
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/sampling"
)

// suiteEngine is an engine over d summed features of a uniform catalogue.
func suiteEngine(t *testing.T, d int, psi float64, seed int64, rng *rand.Rand) *Engine {
	t.Helper()
	aggs := make([]feature.Agg, d)
	for j := range aggs {
		aggs[j] = feature.AggSum
	}
	e, err := New(Config{
		Items:       dataset.UNI(60, d, rng),
		Profile:     feature.SimpleProfile(aggs...),
		K:           3,
		SampleCount: 30,
		Psi:         psi,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// suiteConstraints returns m half-spaces a hidden vector drawn from
// N(0, 0.5²) satisfies: a consistent user's feedback.
func suiteConstraints(d, m int, rng *rand.Rand) []prefgraph.Constraint {
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
		cs = append(cs, prefgraph.Constraint{Diff: diff})
	}
	return cs
}

// lag1 is the lag-1 autocorrelation of a draw's samples in draw order,
// averaged over the dimensions.
func lag1(s []sampling.Sample) float64 {
	d := len(s[0].W)
	sum := 0.0
	for j := 0; j < d; j++ {
		mean := 0.0
		for i := range s {
			mean += s[i].W[j]
		}
		mean /= float64(len(s))
		var num, den float64
		for i := range s {
			x := s[i].W[j] - mean
			den += x * x
			if i > 0 {
				num += x * (s[i-1].W[j] - mean)
			}
		}
		if den > 0 {
			sum += num / den
		}
	}
	return sum / float64(d)
}

// TestSamplerPropertySuite: a fixed-seed grid of draws as the engine makes
// them — 5 and 10 dimensions, 0 to 50 consistent constraints, ψ 1 and 0.9,
// 500 samples per draw over six seeds. ref is each cell's lag-1
// autocorrelation under the pure §3.2.2 chain started from up to 20 000
// prior draws, measured on the same seeds and constraint sets. Every draw
// returns 500 samples of unit weight, so its ENS is 500, the chain's too.
// Where the engine draws by rejection (no constraint) the samples are
// independent, lag-1 ≈ 0 against the chain's ≈ 0.9. Where it runs the same
// chain the figure differs from ref only by the chain's spread across
// seeds, about ±0.015, so a cell may exceed ref by at most 0.03, and the
// grid's mean must not exceed ref's.
func TestSamplerPropertySuite(t *testing.T) {
	cells := []struct {
		d, m int
		psi  float64
		ref  float64
	}{
		{5, 0, 1, 0.897}, {5, 5, 1, 0.861}, {5, 20, 1, 0.861}, {5, 50, 1, 0.946},
		{5, 0, 0.9, 0.897}, {5, 5, 0.9, 0.903}, {5, 20, 0.9, 0.885}, {5, 50, 0.9, 0.936},
		{10, 0, 1, 0.939}, {10, 5, 1, 0.928}, {10, 20, 1, 0.921}, {10, 50, 1, 0.950},
		{10, 0, 0.9, 0.939}, {10, 5, 0.9, 0.947}, {10, 20, 0.9, 0.947}, {10, 50, 0.9, 0.966},
	}
	const n, seeds = 500, 6
	var sum, refSum float64
	for _, c := range cells {
		rho := 0.0
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := suiteEngine(t, c.d, c.psi, seed, rng)
			res, err := e.draw(suiteConstraints(c.d, c.m, rng), n)
			if err != nil {
				t.Fatal(err)
			}
			if ens := sampling.ENS(res.Samples); len(res.Samples) != n || ens < n-1e-9 {
				t.Fatalf("d %d, %d constraints, ψ %v: %d samples, ENS %.1f", c.d, c.m, c.psi, len(res.Samples), ens)
			}
			rho += lag1(res.Samples) / seeds
		}
		t.Logf("d %2d, %2d constraints, ψ %.1f: lag-1 %.3f (chain from prior draws %.3f)", c.d, c.m, c.psi, rho, c.ref)
		if rho > c.ref+0.03 {
			t.Errorf("d %d, %d constraints, ψ %v: lag-1 autocorrelation %.3f, the chain's %.3f", c.d, c.m, c.psi, rho, c.ref)
		}
		sum += rho
		refSum += c.ref
	}
	if sum > refSum {
		t.Errorf("mean lag-1 autocorrelation %.3f over the grid, the chain's %.3f", sum/float64(len(cells)), refSum/float64(len(cells)))
	}
}

// TestClickIsOneMaintenancePass: over fixed-seed sessions in 5 and 10
// dimensions at ψ 1 and 0.9 — clicks on a hidden utility's best package,
// one in four at random — every click makes at most one replacement draw.
// At ψ 1, unless the click reports a replacement failure, no pool sample
// violates a preference the click recorded.
func TestClickIsOneMaintenancePass(t *testing.T) {
	for _, d := range []int{5, 10} {
		for _, psi := range []float64{1, 0.9} {
			rng := rand.New(rand.NewSource(int64(d)))
			e := suiteEngine(t, d, psi, 3, rng)
			hidden := make([]float64, d)
			for j := range hidden {
				hidden[j] = rng.NormFloat64()
			}
			utility := func(p pkgspace.Package) float64 { return feature.Dot(hidden, pkgspace.Vector(e.FeedbackSpace(), p)) }
			multi := 0
			for round := 0; round < 25; round++ {
				slate, err := e.Recommend()
				if err != nil {
					t.Fatal(err)
				}
				chosen := slate.All[rng.Intn(len(slate.All))]
				if rng.Intn(4) != 0 {
					for _, p := range slate.All {
						if utility(p) > utility(chosen) {
							chosen = p
						}
					}
				}
				draws, failures, replaced := e.draws, e.stats.ReplacementFailures, e.stats.SamplesReplaced
				if err := e.Click(chosen, slate.All); err != nil {
					t.Fatal(err)
				}
				if e.draws > draws+1 {
					t.Fatalf("d %d ψ %v round %d: the click drew %d times", d, psi, round, e.draws-draws)
				}
				if e.stats.SamplesReplaced-replaced > 1 {
					multi++
				}
				if psi < 1 || e.stats.ReplacementFailures != failures {
					continue
				}
				recorded := map[[2]string]bool{}
				for _, pr := range e.graph.Preferences() {
					recorded[[2]string{pr[0].Signature(), pr[1].Signature()}] = true
				}
				cv := pkgspace.Vector(slate.Space, chosen)
				for _, p := range slate.All {
					if !recorded[[2]string{chosen.Signature(), p.Signature()}] {
						continue
					}
					pv := pkgspace.Vector(slate.Space, p)
					for i, s := range e.pool.Samples {
						if feature.Dot(s.W, cv) < feature.Dot(s.W, pv) {
							t.Fatalf("d %d round %d: pool sample %d prefers %s to the clicked %s", d, round, i, p, chosen)
						}
					}
				}
			}
			if multi == 0 {
				t.Fatalf("d %d ψ %v: no click replaced more than one sample", d, psi)
			}
		}
	}
}

// TestClickCountsReplacementAttempts: a click that draws replacements adds
// that draw's attempts to SampleAttempts — at least one per accepted sample,
// so at least the samples it replaced — and a click that draws nothing adds
// none. Before, only first pools were counted. The user is consistent, so
// every draw succeeds.
func TestClickCountsReplacementAttempts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := suiteEngine(t, 5, 1, 3, rng)
	hidden := []float64{0.6, -0.2, 0.4, 0.1, -0.5}
	utility := func(p pkgspace.Package) float64 { return feature.Dot(hidden, pkgspace.Vector(e.FeedbackSpace(), p)) }
	drew := 0
	for round := 0; round < 15; round++ {
		slate, err := e.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		chosen := slate.All[0]
		for _, p := range slate.All {
			if utility(p) > utility(chosen) {
				chosen = p
			}
		}
		draws, attempts, replaced := e.draws, e.stats.SampleAttempts, e.stats.SamplesReplaced
		if err := e.Click(chosen, slate.All); err != nil {
			t.Fatal(err)
		}
		if e.stats.ReplacementFailures != 0 {
			t.Fatalf("round %d: a consistent click's draw failed", round)
		}
		dAttempts, dReplaced := e.stats.SampleAttempts-attempts, e.stats.SamplesReplaced-replaced
		switch {
		case e.draws == draws && dAttempts != 0:
			t.Fatalf("round %d: a click that drew nothing added %d attempts", round, dAttempts)
		case e.draws > draws && (dReplaced == 0 || dAttempts < dReplaced):
			t.Fatalf("round %d: a click replaced %d samples and added %d attempts", round, dReplaced, dAttempts)
		case e.draws > draws:
			drew++
		}
	}
	if drew == 0 {
		t.Fatal("no click drew replacements")
	}
}
