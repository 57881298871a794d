// This file builds only on amd64 (its _amd64 suffix). Its outputs rest on
// sampler comparisons, and Go fuses floating-point multiply-adds on arm64
// but not on amd64, which can move a borderline draw and every round after.

package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
	"toppkg/internal/simulate"
)

// ExampleEngine_playlist runs the elicitation loop on a music-playlist
// scenario (the paper's Last.fm motivation): songs have price, rating, play
// count and duration, and a package is a playlist of up to six songs. A
// simulated listener with a hidden taste clicks through slates until the
// recommended playlists stop changing.
func ExampleEngine_playlist() {
	const seed = 7
	songs := makeSongs(rand.New(rand.NewSource(seed)), 800)

	// Total price (sum), average rating (avg), total play count (sum, a
	// popularity proxy) and longest duration (max: long epics stand out).
	profile := feature.MustProfile(4,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggAvg},
		feature.Entry{Feature: 2, Agg: feature.AggSum},
		feature.Entry{Feature: 3, Agg: feature.AggMax},
	)
	eng := must(core.New(core.Config{
		Items:          songs,
		Profile:        profile,
		MaxPackageSize: 6,
		K:              4,
		RandomCount:    4,
		Semantics:      ranking.EXP,
		SampleCount:    200,
		Seed:           seed,
		// Beam-bounded searches keep each round interactive.
		Search: search.Options{MaxQueue: 64, MaxAccessed: 200},
	}))

	// A price-sensitive listener who loves highly rated, popular songs:
	// the engine knows none of this.
	listener := &simulate.User{U: must(feature.NewUtility(profile, []float64{-0.7, 0.8, 0.4, 0.1}))}

	fmt.Println("playlist elicitation — hidden taste: cheap, well-rated, popular")
	fmt.Println(strings.Repeat("-", 64))
	prev := ""
	rngUser := rand.New(rand.NewSource(seed + 1))
	for round := 1; round <= 10; round++ {
		slate := must(eng.Recommend())
		top := slate.Recommended[0]
		fmt.Printf("round %2d: best playlist %-18s EXP=%.3f trueU=%.3f\n",
			round, top.Pkg, top.Score,
			listener.U.Score(pkgspace.Vector(eng.Space(), top.Pkg)))
		key := strings.Join(ranking.Signatures(slate.Recommended), ";")
		if key == prev {
			fmt.Println("recommendations stable — stopping.")
			break
		}
		prev = key
		pick := listener.Choose(eng.Space(), slate.All, rngUser)
		if err := eng.Click(slate.All[pick], slate.All); err != nil {
			panic(err)
		}
	}

	// The final playlist in human terms.
	top := must(eng.Recommend()).Recommended[0].Pkg
	fmt.Println("\nfinal playlist:")
	var cost, rating float64
	for _, id := range top.IDs {
		s := eng.Space().Items[id]
		cost += s.Values[0]
		rating += s.Values[1]
		fmt.Printf("  %-10s price $%.2f rating %.1f plays %.0fk dur %.0fs\n",
			s.Name, s.Values[0], s.Values[1]*5, s.Values[2]/1000, s.Values[3])
	}
	fmt.Printf("total price $%.2f, avg rating %.2f/5\n", cost, rating/float64(top.Size())*5)
	st := eng.Stats()
	fmt.Printf("stats: %d feedbacks, %d samples replaced, %d active constraints\n",
		st.Feedback, st.SamplesReplaced, st.ConstraintsActive)
	// Output:
	// playlist elicitation — hidden taste: cheap, well-rated, popular
	// ----------------------------------------------------------------
	// round  1: best playlist {43}               EXP=0.031 trueU=0.075
	// round  2: best playlist {85}               EXP=0.136 trueU=0.780
	// round  3: best playlist {85}               EXP=0.243 trueU=0.780
	// round  4: best playlist {85}               EXP=0.243 trueU=0.780
	// recommendations stable — stopping.
	//
	// final playlist:
	//   song085    price $0.99 rating 4.9 plays 70k dur 123s
	// total price $0.99, avg rating 4.93/5
	// stats: 18 feedbacks, 277 samples replaced, 18 active constraints
}

// makeSongs synthesizes a catalogue with realistic structure: ratings and
// plays correlate; price is mostly flat with premium outliers.
func makeSongs(rng *rand.Rand, n int) []feature.Item {
	songs := make([]feature.Item, n)
	for i := range songs {
		quality := rng.Float64()
		price := 0.99 + math.Floor(rng.Float64()*3)*0.3 // $0.99–$1.89 tiers
		rating := min(max(0.3+0.6*quality+rng.NormFloat64()*0.1, 0), 1)
		plays := math.Pow(quality, 2) * 90000 * (0.5 + rng.Float64())
		duration := 120 + rng.Float64()*360
		songs[i] = feature.Item{
			ID:     i,
			Name:   fmt.Sprintf("song%03d", i),
			Values: []float64{price, rating, plays, duration},
		}
	}
	return songs
}

// ExampleEngine_shoppingcart contrasts the paper's learned trade-off with
// the hard-constraint baseline (§1) on a book-buying scenario, under the §7
// extension: a schema predicate on packages, "at least two novels". The
// baseline needs a guessed budget: too low cuts good bundles, too high
// explodes the choice. The session instead learns from a few clicks how
// much this shopper trades money for quality.
func ExampleEngine_shoppingcart() {
	books, isNovel := makeBooks(rand.New(rand.NewSource(shoppingSeed)))
	profile := bookProfile()
	sp := must(feature.NewSpace(books, profile, 4))

	// Baseline: a hard budget, then the best average rating under it.
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

	// This paper: learn the price/quality trade-off from clicks.
	eng := must(core.New(core.Config{
		Items:          books,
		Profile:        profile,
		MaxPackageSize: 4,
		K:              3,
		RandomCount:    3,
		Semantics:      ranking.EXP,
		SampleCount:    400,
		Seed:           shoppingSeed,
		Search:         search.Options{Candidate: novelPredicate(isNovel)},
	}))
	// The hidden shopper: strongly quality-driven, mildly price-sensitive.
	shopper := &simulate.User{U: must(feature.NewUtility(profile, []float64{-0.3, 0.9}))}
	rngUser := rand.New(rand.NewSource(shoppingSeed + 1))

	fmt.Println("\nelicited-utility approach (≥2 novels per cart):")
	for round := 1; round <= 6; round++ {
		slate := must(eng.Recommend())
		top := slate.Recommended[0]
		fmt.Printf("  round %d: %-14s price $%5.2f novels %d trueU %.3f\n",
			round, top.Pkg, price(eng.Space(), top.Pkg), countNovels(top.Pkg, isNovel),
			shopper.U.Score(pkgspace.Vector(eng.Space(), top.Pkg)))
		pick := shopper.Choose(eng.Space(), slate.All, rngUser)
		if err := eng.Click(slate.All[pick], slate.All); err != nil {
			panic(err)
		}
	}
	fmt.Println("  (no budget guessed; the trade-off was learned from clicks)")
	// Output:
	// hard-constraint baseline (budget then maximize avg rating):
	//   budget $ 20 → {51}           price $18.98 rating 0.65
	//   budget $ 45 → {4}            price $42.68 rating 0.99
	//   budget $ 90 → {4}            price $42.68 rating 0.99
	//   (answers swing wildly with the guessed budget)
	//
	// elicited-utility approach (≥2 novels per cart):
	//   round 1: {4, 9, 14, 40} price $160.19 novels 3 trueU 0.534
	//   round 2: {4, 9, 14, 41} price $154.51 novels 2 trueU 0.556
	//   round 3: {9, 11}        price $68.53 novels 2 trueU 0.707
	//   round 4: {9, 11}        price $68.53 novels 2 trueU 0.707
	//   round 5: {9, 11}        price $68.53 novels 2 trueU 0.707
	//   round 6: {9, 11}        price $68.53 novels 2 trueU 0.707
	//   (no budget guessed; the trade-off was learned from clicks)
}

// bestUnderBudget scans every package for the best average rating at a
// total price within budget: the hard-constraint optimization.
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
