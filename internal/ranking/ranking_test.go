package ranking

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// paperIndex reproduces the setting of the paper's Figure 2: three items,
// profile (sum1, avg2), φ = 2, and three weight vectors with probabilities
// 0.3, 0.4, 0.3 standing in for Pw.
func paperIndex(t *testing.T) *search.Index {
	t.Helper()
	items := []feature.Item{
		{ID: 0, Values: []float64{0.6, 0.2}},
		{ID: 1, Values: []float64{0.4, 0.4}},
		{ID: 2, Values: []float64{0.2, 0.4}},
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg), 2)
	if err != nil {
		t.Fatal(err)
	}
	return search.NewIndex(sp)
}

func paperSamples() []sampling.Sample {
	return []sampling.Sample{
		{W: []float64{0.5, 0.1}, Q: 0.3},
		{W: []float64{0.1, 0.5}, Q: 0.4},
		{W: []float64{0.1, 0.1}, Q: 0.3},
	}
}

// TestEXPPaperExample: Example 1 computes expected utilities over all six
// packages; the top-2 under EXP are p4 = {t1,t2} (0.415) and p5 = {t2,t3}
// (0.392): the utilities of the one search under the mean vector
// 0.3·w1 + 0.4·w2 + 0.3·w3.
func TestEXPPaperExample(t *testing.T) {
	ix := paperIndex(t)
	got, err := Rank(ix, paperSamples(), EXP, Options{K: 2,
		Search: search.Options{ExpandAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Pkg.Signature() != "0|1" {
		t.Errorf("EXP top-1 = %s, want p4 = {0,1}", got[0].Pkg)
	}
	if got[1].Pkg.Signature() != "1|2" {
		t.Errorf("EXP top-2 = %s, want p5 = {1,2}", got[1].Pkg)
	}
	if math.Abs(got[0].Score-0.415) > 1e-9 {
		t.Errorf("EXP(p4) = %g, want 0.415", got[0].Score)
	}
	if math.Abs(got[1].Score-0.392) > 1e-9 {
		t.Errorf("EXP(p5) = %g, want 0.392", got[1].Score)
	}
}

// TestTKPPaperExample: Example 2 — p5 is in the top-2 list with probability
// 0.7, p4 with probability 0.6; TKP's top-2 is (p5, p4).
func TestTKPPaperExample(t *testing.T) {
	ix := paperIndex(t)
	got, err := Rank(ix, paperSamples(), TKP, Options{K: 2, Sigma: 2,
		Search: search.Options{ExpandAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Pkg.Signature() != "1|2" {
		t.Errorf("TKP top-1 = %s, want p5 = {1,2}", got[0].Pkg)
	}
	if got[1].Pkg.Signature() != "0|1" {
		t.Errorf("TKP top-2 = %s, want p4 = {0,1}", got[1].Pkg)
	}
	if math.Abs(got[0].Score-0.7) > 1e-9 {
		t.Errorf("P(p5 in top-2) = %g, want 0.7", got[0].Score)
	}
	if math.Abs(got[1].Score-0.6) > 1e-9 {
		t.Errorf("P(p4 in top-2) = %g, want 0.6", got[1].Score)
	}
}

// TestMPOPaperExample: Example 3 — the most probable top-2 list is
// (p5, p2) with probability 0.4 (the w2 ordering).
func TestMPOPaperExample(t *testing.T) {
	ix := paperIndex(t)
	got, err := Rank(ix, paperSamples(), MPO, Options{K: 2,
		Search: search.Options{ExpandAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("MPO returned %d packages", len(got))
	}
	if got[0].Pkg.Signature() != "1|2" || got[1].Pkg.Signature() != "1" {
		t.Errorf("MPO list = (%s, %s), want (p5, p2) = ({1,2}, {1})", got[0].Pkg, got[1].Pkg)
	}
	for _, r := range got {
		if math.Abs(r.Score-0.4) > 1e-9 {
			t.Errorf("MPO list probability = %g, want 0.4", r.Score)
		}
	}
}

// TestSemanticsDiffer: the paper's point in §2.2 — the three semantics can
// produce three different top-2 lists on the same distribution.
func TestSemanticsDiffer(t *testing.T) {
	ix := paperIndex(t)
	exp, err := Rank(ix, paperSamples(), EXP, Options{K: 2,
		Search: search.Options{ExpandAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	tkp, err := Rank(ix, paperSamples(), TKP, Options{K: 2, Sigma: 2,
		Search: search.Options{ExpandAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	mpo, err := Rank(ix, paperSamples(), MPO, Options{K: 2,
		Search: search.Options{ExpandAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	if listOf(exp) == listOf(tkp) {
		t.Error("EXP and TKP coincide; paper's example distinguishes them")
	}
	if listOf(tkp) == listOf(mpo) {
		t.Error("TKP and MPO coincide; paper's example distinguishes them")
	}
}

func listOf(rs []Ranked) string {
	s := ""
	for _, r := range rs {
		s += r.Pkg.Signature() + ";"
	}
	return s
}

// TestImportanceWeightsRespected: duplicating a sample with weight 2 must
// equal giving it two unit-weight copies.
func TestImportanceWeightsRespected(t *testing.T) {
	ix := paperIndex(t)
	weighted := []sampling.Sample{
		{W: []float64{0.5, 0.1}, Q: 2},
		{W: []float64{0.1, 0.5}, Q: 1},
	}
	duplicated := []sampling.Sample{
		{W: []float64{0.5, 0.1}, Q: 1},
		{W: []float64{0.5, 0.1}, Q: 1},
		{W: []float64{0.1, 0.5}, Q: 1},
	}
	for _, sem := range []Semantics{EXP, TKP, MPO} {
		a, err := Rank(ix, weighted, sem, Options{K: 2, Search: search.Options{ExpandAll: true}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Rank(ix, duplicated, sem, Options{K: 2, Search: search.Options{ExpandAll: true}})
		if err != nil {
			t.Fatal(err)
		}
		if listOf(a) != listOf(b) {
			t.Errorf("%v: weighted %s != duplicated %s", sem, listOf(a), listOf(b))
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Errorf("%v: score[%d] %g != %g", sem, i, a[i].Score, b[i].Score)
			}
		}
	}
}

// TestSingleSampleDegenerate: with one sample, every semantics returns that
// sample's top-k.
func TestSingleSampleDegenerate(t *testing.T) {
	ix := paperIndex(t)
	one := []sampling.Sample{{W: []float64{0.5, 0.1}, Q: 1}}
	for _, sem := range []Semantics{EXP, TKP, MPO} {
		got, err := Rank(ix, one, sem, Options{K: 2, Search: search.Options{ExpandAll: true}})
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Pkg.Signature() != "0|1" || got[1].Pkg.Signature() != "0|2" {
			t.Errorf("%v single-sample = %s", sem, listOf(got))
		}
	}
}

func TestRankValidation(t *testing.T) {
	ix := paperIndex(t)
	if _, err := Rank(ix, paperSamples(), EXP, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Rank(ix, nil, EXP, Options{K: 1}); err == nil {
		t.Error("empty samples accepted")
	}
	for _, w := range [][]float64{{0.5}, {0.5, 0.1, 0.1}} {
		samples := append(paperSamples(), sampling.Sample{W: w, Q: 1})
		if _, err := Rank(ix, samples, EXP, Options{K: 1}); err == nil {
			t.Errorf("EXP accepted a %d-dim sample in a 2-dim pool", len(w))
		}
	}
	// Importance weights: each finite and non-negative, Σq positive and
	// finite. A lone zero weight stays legal (it can underflow).
	unweighted := paperSamples()
	for i := range unweighted {
		unweighted[i].Q = 0
	}
	withQ := func(q float64) []sampling.Sample {
		return append(paperSamples(), sampling.Sample{W: []float64{0.2, 0.2}, Q: q})
	}
	overflow := paperSamples()
	overflow[0].Q, overflow[1].Q = math.MaxFloat64, math.MaxFloat64
	bad := map[string][]sampling.Sample{
		"all-zero weights": unweighted,
		"negative weight":  withQ(-0.1),
		"NaN weight":       withQ(math.NaN()),
		"+Inf weight":      withQ(math.Inf(1)),
		"-Inf weight":      withQ(math.Inf(-1)),
		"overflowing sum":  overflow,
	}
	for _, sem := range []Semantics{EXP, TKP, MPO} {
		opts := Options{K: 2, Search: search.Options{ExpandAll: true}}
		for name, samples := range bad {
			if got, err := Rank(ix, samples, sem, opts); err == nil {
				t.Errorf("%v accepted a pool with %s: %s", sem, name, describe(got))
			}
		}
		if _, err := Rank(ix, withQ(0), sem, opts); err != nil {
			t.Errorf("%v rejected one zero weight: %v", sem, err)
		}
	}
}

// oneItemPool is a one-item space at φ 1, where a search calls its
// Candidate predicate exactly once, and n distinct positive weight vectors.
func oneItemPool(t *testing.T, n int) (*search.Index, []sampling.Sample) {
	t.Helper()
	sp, err := feature.NewSpace([]feature.Item{{ID: 0, Values: []float64{0.5, 0.25}}},
		feature.SimpleProfile(feature.AggSum, feature.AggSum), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	samples := make([]sampling.Sample, n)
	for i := range samples {
		samples[i] = sampling.Sample{W: []float64{0.1 + rng.Float64(), 0.1 + rng.Float64()}, Q: 1}
	}
	return search.NewIndex(sp), samples
}

// TestRankStopsAtFirstError: the per-sample searches run in sample order,
// and the first error stops them. A sample of the wrong dimension at
// position i returns NewUtility's error after exactly the i searches
// before it; each search calls the counting predicate once, and the
// predicate keeps the cache out of the way.
func TestRankStopsAtFirstError(t *testing.T) {
	ix, good := oneItemPool(t, 30)
	var searched int
	opts := Options{K: 1, Cache: NewCache(64), Search: exactOptions}
	opts.Search.Candidate = func(*feature.Space, pkgspace.Package) bool {
		searched++
		return true
	}
	for _, sem := range []Semantics{TKP, MPO} {
		for _, i := range []int{0, 1, 17, 29} {
			samples := append([]sampling.Sample(nil), good...)
			samples[i].W = []float64{1, 1, 1}
			_, wantErr := feature.NewUtility(ix.Space().Profile, samples[i].W)
			searched = 0
			_, err := Rank(ix, samples, sem, opts)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%v bad sample %d: Rank error = %v, want %v", sem, i, err, wantErr)
			}
			if searched != i {
				t.Errorf("%v bad sample %d: %d searches ran, want the %d before it", sem, i, searched, i)
			}
		}
	}
}

// servePool is the serving shape: uniform 1k items under the mixed
// sum/avg/max/min/sum profile at φ 3, 30 weight vectors from the
// origin-centred prior, K 3 and the serving beam.
func servePool(t *testing.T) (*search.Index, []sampling.Sample, Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(28))
	profile := feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum)
	sp, err := feature.NewSpace(dataset.UNI(1000, 5, rng), profile, 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]sampling.Sample, 30)
	for i := range samples {
		w := make([]float64, 5)
		for j := range w {
			w[j] = 0.5 * rng.NormFloat64()
		}
		samples[i] = sampling.Sample{W: w, Q: 1}
	}
	return search.NewIndex(sp), samples, Options{K: 3, Search: search.Options{MaxQueue: 128, MaxAccessed: 500}}
}

// TestConcurrentRankSharedCache: 8 callers rank TKP at once on one index
// and one shared result cache (run with -race), and every slate equals the
// sequential uncached slate.
func TestConcurrentRankSharedCache(t *testing.T) {
	const callers = 8
	ix, samples, opts := servePool(t)
	want, err := Rank(ix, samples, TKP, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = NewCache(64)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Rank(ix, samples, TKP, opts)
			if err != nil {
				t.Error(err)
			} else if !sameRanked(got, want) {
				t.Errorf("concurrent slate %s != sequential slate %s", describe(got), describe(want))
			}
		}()
	}
	wg.Wait()
}

func TestSemanticsString(t *testing.T) {
	if EXP.String() != "EXP" || TKP.String() != "TKP" || MPO.String() != "MPO" {
		t.Error("semantics names wrong")
	}
	if Semantics(9).String() != "Semantics(9)" {
		t.Error("unknown semantics name wrong")
	}
}

func TestParseSemantics(t *testing.T) {
	for in, want := range map[string]Semantics{"exp": EXP, "TKP": TKP, " mpo ": MPO} {
		got, err := ParseSemantics(in)
		if err != nil || got != want {
			t.Errorf("ParseSemantics(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSemantics("best"); err == nil {
		t.Error("ParseSemantics(best) succeeded")
	}
}

func TestSignatures(t *testing.T) {
	ix := paperIndex(t)
	got, err := Rank(ix, paperSamples(), EXP, Options{K: 2, Search: search.Options{ExpandAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	sigs := Signatures(got)
	if len(sigs) != 2 || sigs[0] == "" {
		t.Errorf("Signatures = %v", sigs)
	}
}
