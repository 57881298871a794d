// NBA builds "dream-team" packages of players from the synthesized NBA
// career-statistics dataset (the paper's real-data evaluation set) and
// contrasts the three ranking semantics on the same uncertain utility.
package main

import (
	"fmt"
	"log"
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

const seed = 21

func main() {
	rng := rand.New(rand.NewSource(seed))
	players := dataset.NBASelect(dataset.NBA(rng), 4) // points, rebounds, assists, fg%

	// A team of up to 5 players; the profile mixes totals and averages:
	// total points, total rebounds, avg assists, min fg% (weakest shooter).
	profile := feature.MustProfile(4,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggSum},
		feature.Entry{Feature: 2, Agg: feature.AggAvg},
		feature.Entry{Feature: 3, Agg: feature.AggMin},
	)
	sp, err := feature.NewSpace(players, profile, 5)
	if err != nil {
		log.Fatal(err)
	}
	ix := search.NewIndex(sp)

	// Uncertainty about the coach's taste: prior plus two observed
	// preferences (from earlier sessions) restricting the weight space.
	prior := gaussmix.DefaultPrior(4, 1, rng)
	graph := prefgraph.New()
	addPref(graph, pkgspace.New(0, 1), pkgspace.New(2))
	addPref(graph, pkgspace.New(3, 4, 5), pkgspace.New(6, 7))
	v := sampling.NewValidator(4, graph.Constraints(true, func(p pkgspace.Package) []float64 { return pkgspace.Vector(sp, p) }))
	ms := &sampling.MCMC{Prior: prior, V: v}
	res, err := ms.Sample(rng, 800)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drew %d weight samples (%d raw draws) consistent with %d preferences\n\n",
		len(res.Samples), res.Attempts, graph.Edges())

	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		ranked, err := ranking.Rank(ix, res.Samples, sem, ranking.Options{K: 3,
			Search: search.Options{MaxQueue: 64, MaxAccessed: 300}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("top teams under %s:\n", sem)
		for i, r := range ranked {
			fmt.Printf("  %d. score %.3f  %s\n", i+1, r.Score, roster(sp, r.Pkg))
		}
		fmt.Println()
	}
}

func addPref(g *prefgraph.Graph, winner, loser pkgspace.Package) {
	if err := g.AddPreference(winner, loser); err != nil {
		log.Fatal(err)
	}
}

func roster(sp *feature.Space, p pkgspace.Package) string {
	s := ""
	for i, id := range p.IDs {
		if i > 0 {
			s += ", "
		}
		s += sp.Items[id].Name
	}
	return s
}
