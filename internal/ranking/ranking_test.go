package ranking

import (
	"math"
	"testing"

	"toppkg/internal/feature"
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
