package ranking_test

import (
	"fmt"
	"strings"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// ExampleRank walks through the paper's running example (Figs. 1–2): three
// items with cost and rating features, packages of up to two items, the
// (sum, avg) aggregate profile, a top-3 search under one fixed utility, and
// then the three ranking semantics under an uncertain one.
func ExampleRank() {
	// Figure 1(a): three items, two features (f1 = cost, f2 = rating).
	items := []feature.Item{
		{ID: 0, Name: "t1", Values: []float64{0.6, 0.2}},
		{ID: 1, Name: "t2", Values: []float64{0.4, 0.4}},
		{ID: 2, Name: "t3", Values: []float64{0.2, 0.4}},
	}
	// The profile (sum1, avg2): package cost is the sum of item costs,
	// package quality the average rating. φ = 2: packages of one or two items.
	profile := feature.SimpleProfile(feature.AggSum, feature.AggAvg)
	sp := must(feature.NewSpace(items, profile, 2))

	// A fixed utility first: the paper's w1 = (0.5, 0.1).
	u := must(feature.NewUtility(profile, []float64{0.5, 0.1}))
	ix := search.NewIndex(sp)
	res := must(ix.TopK(u, search.Options{K: 3}))
	fmt.Println("top-3 packages under w = (0.5, 0.1):")
	for i, sc := range res.Packages {
		fmt.Printf("  %d. {%s} utility %.3f\n", i+1, names(sp, sc.Pkg), sc.Utility)
	}

	// Now the uncertain utility of Figure 2: three possible weight vectors
	// with probabilities (0.3, 0.4, 0.3), and the three ranking semantics.
	samples := []sampling.Sample{
		{W: []float64{0.5, 0.1}, Q: 0.3},
		{W: []float64{0.1, 0.5}, Q: 0.4},
		{W: []float64{0.1, 0.1}, Q: 0.3},
	}
	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		ranked := must(ranking.Rank(ix, samples, sem, ranking.Options{
			K:      2,
			Search: search.Options{ExpandAll: true},
		}))
		fmt.Printf("\ntop-2 under %s:\n", sem)
		for i, r := range ranked {
			fmt.Printf("  %d. {%s} score %.3f\n", i+1, names(sp, r.Pkg), r.Score)
		}
	}
	fmt.Println("\nas in the paper: EXP → (p4, p5), TKP → (p5, p4), MPO → (p5, p2).")
	// Output:
	// top-3 packages under w = (0.5, 0.1):
	//   1. {t1, t2} utility 0.575
	//   2. {t1, t3} utility 0.475
	//   3. {t2, t3} utility 0.400
	//
	// top-2 under EXP:
	//   1. {t1, t2} score 0.415
	//   2. {t2, t3} score 0.392
	//
	// top-2 under TKP:
	//   1. {t2, t3} score 0.700
	//   2. {t1, t2} score 0.600
	//
	// top-2 under MPO:
	//   1. {t2, t3} score 0.400
	//   2. {t2} score 0.400
	//
	// as in the paper: EXP → (p4, p5), TKP → (p5, p4), MPO → (p5, p2).
}

// must panics on a non-nil error: an Example has no *testing.T to fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// names lists a package's item names, comma-separated.
func names(sp *feature.Space, p pkgspace.Package) string {
	s := make([]string, len(p.IDs))
	for i, id := range p.IDs {
		s[i] = sp.Items[id].Name
	}
	return strings.Join(s, ", ")
}
