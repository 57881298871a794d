// Quickstart walks through the paper's running example (Figure 1/2): three
// items with cost and rating features, packages of size up to two, the
// (sum, avg) aggregate profile, and the three ranking semantics under an
// uncertain utility — the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

func main() {
	// Figure 1(a): three items, two features (f1 = cost, f2 = rating).
	items := []feature.Item{
		{ID: 0, Name: "t1", Values: []float64{0.6, 0.2}},
		{ID: 1, Name: "t2", Values: []float64{0.4, 0.4}},
		{ID: 2, Name: "t3", Values: []float64{0.2, 0.4}},
	}
	// The profile (sum1, avg2): package cost is the sum of item costs,
	// package quality the average rating.
	profile := feature.SimpleProfile(feature.AggSum, feature.AggAvg)

	// φ = 2: packages of one or two items.
	sp, err := feature.NewSpace(items, profile, 2)
	if err != nil {
		log.Fatal(err)
	}

	// A fixed utility first: the paper's w1 = (0.5, 0.1), weighting the
	// cost dimension at 0.5 and the quality dimension at 0.1.
	u, err := feature.NewUtility(profile, []float64{0.5, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	ix := search.NewIndex(sp)
	res, err := ix.TopK(u, search.Options{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 packages under w = (0.5, 0.1):")
	for i, sc := range res.Packages {
		fmt.Printf("  %d. %s utility %.3f\n", i+1, describe(sp, sc.Pkg), sc.Utility)
	}

	// Now the uncertain utility of Figure 2: three possible weight vectors
	// with probabilities (0.3, 0.4, 0.3), and the three ranking semantics.
	samples := []sampling.Sample{
		{W: []float64{0.5, 0.1}, Q: 0.3},
		{W: []float64{0.1, 0.5}, Q: 0.4},
		{W: []float64{0.1, 0.1}, Q: 0.3},
	}
	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		ranked, err := ranking.Rank(ix, samples, sem, ranking.Options{
			K:      2,
			Search: search.Options{ExpandAll: true},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntop-2 under %s:\n", sem)
		for i, r := range ranked {
			fmt.Printf("  %d. %s score %.3f\n", i+1, describe(sp, r.Pkg), r.Score)
		}
	}
	fmt.Println("\nas in the paper: EXP → (p4, p5), TKP → (p5, p4), MPO → (p5, p2).")
}

func describe(sp *feature.Space, p pkgspace.Package) string {
	s := "{"
	for i, id := range p.IDs {
		if i > 0 {
			s += ", "
		}
		s += sp.Items[id].Name
	}
	return s + "}"
}
