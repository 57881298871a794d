package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/search"
)

// shoppingSeed seeds ExampleEngine_shoppingcart's catalogue and session.
const shoppingSeed = 11

// makeBooks draws ExampleEngine_shoppingcart's 60-book catalogue (price,
// rating; better books cost more) and marks about half of it as novels.
func makeBooks(rng *rand.Rand) ([]feature.Item, map[int]bool) {
	const nBooks = 60
	books := make([]feature.Item, nBooks)
	isNovel := make(map[int]bool, nBooks)
	for i := range books {
		quality := rng.Float64()
		pr := 8 + quality*25 + rng.Float64()*10
		rating := min(max(0.3+0.6*quality+rng.NormFloat64()*0.08, 0), 1)
		books[i] = feature.Item{
			ID:     i,
			Name:   fmt.Sprintf("book%02d", i),
			Values: []float64{pr, rating},
		}
		isNovel[i] = rng.Float64() < 0.5
	}
	return books, isNovel
}

// bookProfile is the carts' profile: total price (sum), average rating (avg).
func bookProfile() *feature.Profile {
	return feature.MustProfile(2,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggAvg},
	)
}

// novelPredicate is the §7 schema predicate: a cart holds two novels or more.
func novelPredicate(isNovel map[int]bool) pkgspace.Predicate {
	return pkgspace.MinCount(2, func(it feature.Item) bool { return isNovel[it.ID] })
}

func countNovels(p pkgspace.Package, isNovel map[int]bool) int {
	n := 0
	for _, id := range p.IDs {
		if isNovel[id] {
			n++
		}
	}
	return n
}

// must panics on a non-nil error: an Example has no *testing.T to fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestNovelPredicateSlateUnderMeanWeights: the first EXP slate of
// ExampleEngine_shoppingcart's session searches its catalogue under the
// pool's mean weight vector w̄ = (−0.061, 0.015) with the "≥ 2 novels"
// predicate, at the engine's default Q+ cap. Price weighs negative, so
// every second novel lowers a cart's utility; the search must still return
// K carts, each with two novels or more, and the best one brute force finds.
func TestNovelPredicateSlateUnderMeanWeights(t *testing.T) {
	books, isNovel := makeBooks(rand.New(rand.NewSource(shoppingSeed)))
	profile := bookProfile()
	sp, err := feature.NewSpace(books, profile, 4)
	if err != nil {
		t.Fatal(err)
	}
	u, err := feature.NewUtility(profile, []float64{-0.061, 0.015})
	if err != nil {
		t.Fatal(err)
	}
	novelPred := novelPredicate(isNovel)
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
