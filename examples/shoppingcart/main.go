// Shoppingcart contrasts the paper's learned-tradeoff approach with the
// hard-constraint baseline (§1) on a book-buying scenario, and shows the
// §7 extension: schema predicates on packages ("at least two novels").
//
// The hard-constraint approach needs the user to guess a budget: too low
// and good bundles are cut, too high and the choice explodes. The learned
// utility instead discovers how much this user is willing to trade money
// for quality from a few clicks.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
	"toppkg/internal/simulate"
)

const seed = 11

func main() {
	rng := rand.New(rand.NewSource(seed))
	books, isNovel := makeBooks(rng)

	profile := feature.MustProfile(2,
		feature.Entry{Feature: 0, Agg: feature.AggSum}, // total price
		feature.Entry{Feature: 1, Agg: feature.AggAvg}, // average rating
	)
	sp, err := feature.NewSpace(books, profile, 4)
	if err != nil {
		log.Fatal(err)
	}

	// ---- Baseline: hard budget + maximize rating (the approach of [27]).
	fmt.Println("hard-constraint baseline (budget then maximize avg rating):")
	for _, budget := range []float64{20, 45, 90} {
		best := bestUnderBudget(sp, budget)
		if best.Pkg.IDs == nil {
			fmt.Printf("  budget $%3.0f → nothing affordable\n", budget)
			continue
		}
		fmt.Printf("  budget $%3.0f → %-14s price $%5.2f rating %.2f\n",
			budget, best.Pkg, price(sp, best.Pkg), best.Utility)
	}
	fmt.Println("  (answers swing wildly with the guessed budget)")

	// ---- This paper: learn the price/quality trade-off from clicks.
	novelPred := pkgspace.MinCount(2, func(it feature.Item) bool { return isNovel[it.ID] })
	eng, err := core.New(core.Config{
		Items:          books,
		Profile:        profile,
		MaxPackageSize: 4,
		K:              3,
		RandomCount:    3,
		Semantics:      ranking.EXP,
		SampleCount:    400,
		Seed:           seed,
		// §7 schema predicate: carts must contain at least two novels.
		Search: search.Options{Candidate: novelPred},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Hidden shopper: strongly quality-driven, mildly price-sensitive.
	shopper := &simulate.User{U: mustUtility(profile, []float64{-0.3, 0.9})}
	rngUser := rand.New(rand.NewSource(seed + 1))

	fmt.Println("\nelicited-utility approach (≥2 novels per cart):")
	for round := 1; round <= 6; round++ {
		slate, err := eng.Recommend()
		if err != nil {
			log.Fatal(err)
		}
		top := slate.Recommended[0]
		novels := countNovels(top.Pkg, isNovel)
		fmt.Printf("  round %d: %-14s price $%5.2f novels %d trueU %.3f\n",
			round, top.Pkg, price(eng.Space(), top.Pkg), novels,
			shopper.U.Score(pkgspace.Vector(eng.Space(), top.Pkg)))
		if novels < 2 {
			log.Fatalf("predicate violated: %d novels", novels)
		}
		pick := shopper.Choose(eng.Space(), slate.All, rngUser)
		if err := eng.Click(slate.All[pick], slate.All); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("  (no budget guessed; the trade-off was learned from clicks)")
}

// bestUnderBudget scans all packages: max avg rating subject to total
// price ≤ budget — the hard-constraint optimization.
func bestUnderBudget(sp *feature.Space, budget float64) pkgspace.Scored {
	var best pkgspace.Scored
	pkgspace.Enumerate(sp, func(p pkgspace.Package) bool {
		if price(sp, p) > budget {
			return true
		}
		var sum float64
		for _, id := range p.IDs {
			sum += sp.Items[id].Values[1]
		}
		avg := sum / float64(p.Size())
		if best.Pkg.IDs == nil || avg > best.Utility {
			best = pkgspace.Scored{Pkg: p, Utility: avg}
		}
		return true
	})
	return best
}

func price(sp *feature.Space, p pkgspace.Package) float64 {
	var s float64
	for _, id := range p.IDs {
		s += sp.Items[id].Values[0]
	}
	return s
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

func makeBooks(rng *rand.Rand) ([]feature.Item, map[int]bool) {
	const nBooks = 60
	books := make([]feature.Item, nBooks)
	isNovel := make(map[int]bool, nBooks)
	for i := range books {
		quality := rng.Float64()
		pr := 8 + quality*25 + rng.Float64()*10 // better books cost more
		rating := clamp(0.3+0.6*quality+rng.NormFloat64()*0.08, 0, 1)
		books[i] = feature.Item{
			ID:     i,
			Name:   fmt.Sprintf("book%02d", i),
			Values: []float64{pr, rating},
		}
		isNovel[i] = rng.Float64() < 0.5
	}
	return books, isNovel
}

func mustUtility(p *feature.Profile, w []float64) *feature.Utility {
	u, err := feature.NewUtility(p, w)
	if err != nil {
		panic(err)
	}
	return u
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
