package main

import (
	"math/rand"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/search"
)

// TestNovelPredicateSlateUnderMeanWeights: the first EXP slate of the
// example's session searches its catalogue under the pool's mean weight
// vector w̄ = (−0.061, 0.015) with the "≥ 2 novels" predicate, at the
// engine's default Q+ cap. Price weighs negative, so every second novel
// lowers a cart's utility; the search must still return K carts, each with
// two novels or more, and the best one brute force finds.
func TestNovelPredicateSlateUnderMeanWeights(t *testing.T) {
	books, isNovel := makeBooks(rand.New(rand.NewSource(seed)))
	profile := feature.MustProfile(2,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggAvg},
	)
	sp, err := feature.NewSpace(books, profile, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := mustUtility(profile, []float64{-0.061, 0.015})
	novelPred := pkgspace.MinCount(2, func(it feature.Item) bool { return isNovel[it.ID] })
	const k = 3
	res, err := search.NewIndex(sp).TopK(u, search.Options{K: k, Candidate: novelPred})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != k {
		t.Fatalf("%d carts, want %d (truncated %v)", len(res.Packages), k, res.Truncated)
	}
	for _, sc := range res.Packages {
		if n := countNovels(sc.Pkg, isNovel); n < 2 {
			t.Fatalf("cart %s holds %d novels", sc.Pkg, n)
		}
	}
	want := pkgspace.BruteForceTopK(sp, u, 1, novelPred)
	if got := res.Packages[0]; got.Utility != want[0].Utility {
		t.Fatalf("top cart %s u=%.6f, brute force %s u=%.6f", got.Pkg, got.Utility, want[0].Pkg, want[0].Utility)
	}
}
