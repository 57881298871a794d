// This file builds only on amd64 (its _amd64 suffix). Its output rests on
// sampler comparisons, and Go fuses floating-point multiply-adds on arm64
// but not on amd64, which can move a borderline draw and every rank after.

package ranking_test

import (
	"fmt"
	"math/rand"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// ExampleRank_nba builds "dream-team" packages of players from the
// synthesized NBA career-statistics dataset (the paper's real-data set) and
// contrasts the three ranking semantics over one MCMC sample pool.
func ExampleRank_nba() {
	rng := rand.New(rand.NewSource(21))
	players := dataset.NBASelect(dataset.NBA(rng), 4) // points, rebounds, assists, fg%

	// A team of up to 5 players: total points, total rebounds, avg
	// assists, min fg% (the weakest shooter).
	profile := feature.MustProfile(4,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggSum},
		feature.Entry{Feature: 2, Agg: feature.AggAvg},
		feature.Entry{Feature: 3, Agg: feature.AggMin},
	)
	sp := must(feature.NewSpace(players, profile, 5))
	ix := search.NewIndex(sp)

	// Uncertainty about the coach's taste: the prior plus two preferences
	// observed in earlier sessions restricting the weight space.
	prior := gaussmix.DefaultPrior(4, 1, rng)
	graph := prefgraph.New()
	for _, pref := range [][2]pkgspace.Package{
		{pkgspace.New(0, 1), pkgspace.New(2)},
		{pkgspace.New(3, 4, 5), pkgspace.New(6, 7)},
	} {
		if err := graph.AddPreference(pref[0], pref[1]); err != nil {
			panic(err)
		}
	}
	v := sampling.NewValidator(4, graph.Constraints(true, func(p pkgspace.Package) []float64 { return pkgspace.Vector(sp, p) }))
	ms := &sampling.MCMC{Prior: prior, V: v}
	res := must(ms.Sample(rng, 800))
	fmt.Printf("drew %d weight samples (%d raw draws) consistent with %d preferences\n\n",
		len(res.Samples), res.Attempts, graph.Edges())

	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		ranked := must(ranking.Rank(ix, res.Samples, sem, ranking.Options{K: 3,
			Search: search.Options{MaxQueue: 64, MaxAccessed: 300}}))
		fmt.Printf("top teams under %s:\n", sem)
		for i, r := range ranked {
			fmt.Printf("  %d. score %.3f  %s\n", i+1, r.Score, names(sp, r.Pkg))
		}
		fmt.Println()
	}
	// Output:
	// drew 800 weight samples (4001 raw draws) consistent with 2 preferences
	//
	// top teams under EXP:
	//   1. score 0.697  player0763, player2606, player3037, player3554, player3669
	//   2. score 0.693  player0594, player0763, player2606, player3037, player3554
	//   3. score 0.689  player0594, player0763, player2606, player3554, player3669
	//
	// top teams under TKP:
	//   1. score 0.190  player3037
	//   2. score 0.179  player3669
	//   3. score 0.105  player0763, player2606, player3037, player3554, player3669
	//
	// top teams under MPO:
	//   1. score 0.061  player3037
	//   2. score 0.061  player3669
	//   3. score 0.061  player2271
}
