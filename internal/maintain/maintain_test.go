package maintain

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"toppkg/internal/gaussmix"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/sampling"
	"toppkg/internal/topk"
)

func constraint(diff ...float64) prefgraph.Constraint {
	return prefgraph.Constraint{Winner: pkgspace.New(0), Loser: pkgspace.New(1), Diff: diff}
}

func randomSamples(rng *rand.Rand, n, d int) []sampling.Sample {
	out := make([]sampling.Sample, n)
	for i := range out {
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64()*2 - 1
		}
		out[i] = sampling.Sample{W: w, Q: 1}
	}
	return out
}

func TestQueryNegatesDiff(t *testing.T) {
	c := constraint(0.5, -0.3)
	q := Query(c)
	if q[0] != -0.5 || q[1] != 0.3 {
		t.Errorf("Query = %v, want (-0.5, 0.3)", q)
	}
}

// TestCheckersAgree: all three strategies must find exactly the same
// violator set on random pools and constraints.
func TestCheckersAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		d := 1 + rng.Intn(5)
		pool := topk.NewPool(sampling.Weights(randomSamples(rng, n, d)))
		diff := make([]float64, d)
		for j := range diff {
			diff[j] = rng.Float64()*2 - 1
		}
		q := Query(constraint(diff...))
		naive, _ := (&Naive{P: pool}).Violators(q)
		ta, _ := (&TA{P: pool}).Violators(q)
		hybrid, _ := (&Hybrid{P: pool, Gamma: 0.025}).Violators(q)
		sort.Ints(ta)
		sort.Ints(hybrid)
		if len(naive) != len(ta) || len(naive) != len(hybrid) {
			return false
		}
		for i := range naive {
			if naive[i] != ta[i] || naive[i] != hybrid[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func bruteViolators(vecs [][]float64, q []float64) []int {
	var out []int
	for i, v := range vecs {
		s := 0.0
		for j := range v {
			s += v[j] * q[j]
		}
		if s > 0 {
			out = append(out, i)
		}
	}
	return out
}

func TestTAMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		d := 1 + rng.Intn(5)
		vecs := sampling.Weights(randomSamples(rng, n, d))
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()*2 - 1
			if rng.Float64() < 0.2 {
				q[j] = 0
			}
		}
		got, _ := (&TA{P: topk.NewPool(vecs)}).Violators(q)
		sort.Ints(got)
		want := bruteViolators(vecs, q)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestTAEarlyTermination: when no vector scores above zero and the query
// points away from the data, TA should touch far fewer entries than a full
// scan of all lists.
func TestTAEarlyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 5000
	vecs := make([][]float64, n)
	for i := range vecs {
		// All coordinates positive.
		vecs[i] = []float64{rng.Float64() + 0.01, rng.Float64() + 0.01}
	}
	// q all-negative: every score < 0; first accesses already prove it.
	res, accesses := (&TA{P: topk.NewPool(vecs)}).Violators([]float64{-1, -1})
	if len(res) != 0 {
		t.Fatalf("got %d violators, want 0", len(res))
	}
	if accesses > n/10 {
		t.Errorf("TA did %d accesses on a hopeless query (n=%d); early termination broken", accesses, n)
	}
}

// TestTAWinsWhenFewViolators reproduces Figure 7's left end: when almost no
// samples violate the feedback, TA does far less work than the naive scan.
func TestTAWinsWhenFewViolators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 10000
	samples := make([]sampling.Sample, n)
	for i := range samples {
		// All samples in the positive quadrant.
		samples[i] = sampling.Sample{W: []float64{rng.Float64(), rng.Float64()}, Q: 1}
	}
	pool := topk.NewPool(sampling.Weights(samples))
	// Query (-1,-1): w·q < 0 for all — zero violators.
	q := []float64{-1, -1}
	naive := &Naive{P: pool}
	ta := &TA{P: pool}
	vN, workN := naive.Violators(q)
	vT, workT := ta.Violators(q)
	if len(vN) != 0 || len(vT) != 0 {
		t.Fatalf("violators found where none exist: %d, %d", len(vN), len(vT))
	}
	if workT >= workN/10 {
		t.Errorf("TA work %d not ≪ naive %d on zero-violator query", workT, workN)
	}
}

// TestNaiveWinsWhenManyViolators reproduces Figure 7's right end: when most
// samples violate, pure TA costs more than a scan, and the hybrid stays
// within (1+γ) of naive.
func TestNaiveWinsWhenManyViolators(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 10000
	samples := make([]sampling.Sample, n)
	for i := range samples {
		samples[i] = sampling.Sample{W: []float64{rng.Float64(), rng.Float64()}, Q: 1}
	}
	pool := topk.NewPool(sampling.Weights(samples))
	q := []float64{1, 1} // every sample violates
	_, workN := (&Naive{P: pool}).Violators(q)
	_, workT := (&TA{P: pool}).Violators(q)
	gamma := 0.025
	vH, workH := (&Hybrid{P: pool, Gamma: gamma}).Violators(q)
	if len(vH) != n {
		t.Fatalf("hybrid missed violators: %d of %d", len(vH), n)
	}
	if workT <= workN {
		t.Errorf("TA work %d not worse than naive %d on all-violator query", workT, workN)
	}
	if float64(workH) > float64(workN)*(1+gamma)+1 {
		t.Errorf("hybrid work %d exceeds (1+γ)·naive = %g", workH, float64(workN)*(1+gamma))
	}
}

// TestHybridGammaSpectrum: larger γ lets the hybrid behave more like TA
// (more sorted accesses before fallback) — Figure 7(b)'s mechanism.
func TestHybridGammaSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 5000
	samples := randomSamples(rng, n, 3)
	pool := topk.NewPool(sampling.Weights(samples))
	q := []float64{0.7, 0.5, 0.6} // roughly half the samples violate
	_, workSmall := (&Hybrid{P: pool, Gamma: 0.001}).Violators(q)
	_, workLarge := (&Hybrid{P: pool, Gamma: 10}).Violators(q)
	_, workTA := (&TA{P: pool}).Violators(q)
	if workLarge != workTA {
		t.Errorf("γ=10 hybrid work %d != pure TA %d", workLarge, workTA)
	}
	if workSmall > n+n/100+3 {
		t.Errorf("γ≈0 hybrid work %d far above naive %d", workSmall, n)
	}
}

func TestPoolApplyReplacesViolators(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	samples := randomSamples(rng, 500, 2)
	p := NewPool(samples)
	c := constraint(1, 0) // winner better on dim 0: violators have w[0] < 0
	prior := gaussmix.DefaultPrior(2, 1, rng)
	v := sampling.NewValidator(2, []prefgraph.Constraint{c})
	s := &sampling.Rejection{Prior: prior, V: v}
	draw := func(n int) (sampling.Result, error) { return s.Sample(rng, n) }
	replaced, work, err := p.Apply([]prefgraph.Constraint{c}, draw)
	if err != nil {
		t.Fatal(err)
	}
	if replaced == 0 {
		t.Fatal("no samples replaced; expected roughly half")
	}
	if work == 0 {
		t.Fatal("checker reported zero work")
	}
	// After replacement no sample violates the constraint.
	for i, smp := range p.Samples {
		if c.Violates(smp.W) {
			t.Fatalf("sample %d still violates after Apply", i)
		}
	}
	// A second Apply of the same constraint replaces nothing.
	replaced2, _, err := p.Apply([]prefgraph.Constraint{c}, draw)
	if err != nil {
		t.Fatal(err)
	}
	if replaced2 != 0 {
		t.Errorf("second Apply replaced %d, want 0", replaced2)
	}
}

// TestPoolApplyKeepsValidSamples: Apply replaces exactly the naive scan's
// violator set and leaves every valid sample untouched.
func TestPoolApplyKeepsValidSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := randomSamples(rng, 200, 2)
	// Remember which samples are valid beforehand.
	c := constraint(0, 1)
	validBefore := map[int][]float64{}
	for i, s := range samples {
		if !c.Violates(s.W) {
			validBefore[i] = append([]float64(nil), s.W...)
		}
	}
	p := NewPool(samples)
	naive, _ := (&Naive{P: topk.NewPool(sampling.Weights(samples))}).Violators(Query(c))
	if len(naive)+len(validBefore) != len(samples) {
		t.Fatalf("naive found %d violators, %d of %d samples are valid", len(naive), len(validBefore), len(samples))
	}
	prior := gaussmix.DefaultPrior(2, 1, rng)
	v := sampling.NewValidator(2, []prefgraph.Constraint{c})
	s := &sampling.Rejection{Prior: prior, V: v}
	replaced, _, err := p.Apply([]prefgraph.Constraint{c}, func(n int) (sampling.Result, error) { return s.Sample(rng, n) })
	if err != nil {
		t.Fatal(err)
	}
	if replaced != len(naive) {
		t.Errorf("Apply replaced %d samples, naive finds %d violators", replaced, len(naive))
	}
	for _, i := range naive {
		if c.Violates(p.Samples[i].W) {
			t.Errorf("violator %d was not replaced", i)
		}
	}
	for i, w := range validBefore {
		for j := range w {
			if p.Samples[i].W[j] != w[j] {
				t.Fatalf("valid sample %d was touched", i)
			}
		}
	}
}

// TestPoolApplyDrawsOnlyForViolators: Apply never calls draw when every
// sample satisfies the constraint, and otherwise calls it once for exactly
// the violators.
func TestPoolApplyDrawsOnlyForViolators(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := randomSamples(rng, 300, 2)
	for _, s := range samples {
		s.W[0] = math.Abs(s.W[0])
	}
	c := constraint(1, 0) // violators have w[0] < 0: none here
	p := NewPool(samples)
	replaced, work, err := p.Apply([]prefgraph.Constraint{c}, func(n int) (sampling.Result, error) {
		t.Fatalf("draw(%d) called with no violator", n)
		return sampling.Result{}, nil
	})
	if err != nil || replaced != 0 || work == 0 {
		t.Fatalf("Apply = (%d, %d, %v), want (0, >0, nil)", replaced, work, err)
	}

	samples[7].W[0], samples[42].W[0] = -0.5, -0.25
	calls := 0
	replaced, _, err = p.Apply([]prefgraph.Constraint{c}, func(n int) (sampling.Result, error) {
		calls++
		if n != 2 {
			t.Errorf("draw(%d), want draw(2)", n)
		}
		return sampling.Result{Samples: randomSamples(rng, n, 2)}, nil
	})
	if err != nil || replaced != 2 || calls != 1 {
		t.Fatalf("Apply = (%d, _, %v) after %d draws, want (2, _, nil) after 1", replaced, err, calls)
	}
}

// TestPoolApplyOneDrawForSeveralConstraints: with several new constraints
// Apply calls draw once, for every sample violating at least one of them
// (each counted once), and keeps every sample that satisfies them all.
func TestPoolApplyOneDrawForSeveralConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	samples := randomSamples(rng, 400, 3)
	cs := []prefgraph.Constraint{constraint(1, 0, 0), constraint(0, 1, 0), constraint(1, 1, 0)}
	var want []int
	kept := map[int][]float64{}
	for i, s := range samples {
		if slices.ContainsFunc(cs, func(c prefgraph.Constraint) bool { return c.Violates(s.W) }) {
			want = append(want, i)
		} else {
			kept[i] = append([]float64(nil), s.W...)
		}
	}
	p := NewPool(samples)
	calls := 0
	replaced, work, err := p.Apply(cs, func(n int) (sampling.Result, error) {
		calls++
		res := sampling.Result{}
		for i := 0; i < n; i++ {
			res.Samples = append(res.Samples, sampling.Sample{W: []float64{0.5, 0.5, 0.5}, Q: 1})
		}
		return res, nil
	})
	if err != nil || calls != 1 || replaced != len(want) || work == 0 {
		t.Fatalf("Apply = (%d, %d, %v) after %d draws, want (%d, >0, nil) after 1", replaced, work, err, calls, len(want))
	}
	for _, i := range want {
		if p.Samples[i].W[0] != 0.5 {
			t.Fatalf("violator %d was not replaced", i)
		}
	}
	for i, w := range kept {
		if !slices.Equal(p.Samples[i].W, w) {
			t.Fatalf("sample %d satisfies every constraint but was touched", i)
		}
	}
}
