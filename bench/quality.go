package main

import (
	"fmt"
	"math/rand"

	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/pkgspace"
)

// qualityPass measures how much feedback a good slate costs: hidden-utility
// users (weights drawn from the workload's prior region), each a fresh
// session run for qualityRounds rounds of recommend → click, the click
// being the true-utility argmax over the whole slate (as
// simulate.User.Choose). Sequential, one connection, the same for every
// seed on a static catalogue. It returns the mean over users of
//
//	(U*(opt) − U*(best recommended package of the last round))
//	÷ (U*(opt) − mean U* of qualityRandom seeded random packages)
//
// with opt from Index.TopK on the true weights under the workload's search
// options. It runs after the window, on a catalogue that no longer changes.
func qualityPass(st *stack, be backend, g *generator, users int) (regret float64, err error) {
	// The hidden users and their session names (which seed their engines)
	// are frozen with the workload, like its dataset: on a static catalogue
	// the pass measures the elicitation logic, and repeats exactly.
	rng := rand.New(rand.NewSource(datasetSeed + 7919))
	sp, ix := st.shared.Space(), st.shared.Index()
	pr := prior(st.wl)
	if pr == nil {
		pr = gaussmix.DefaultPrior(sp.Dims(), 1, rng)
	}
	util := func(u *feature.Utility, ids []int) float64 {
		return u.Score(pkgspace.Vector(sp, pkgspace.New(ids...)))
	}
	total := 0.0
	for n := 0; n < users; n++ {
		w := pr.Sample(rng)
		for !inBox(w) {
			w = pr.Sample(rng)
		}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			return 0, err
		}
		opts := searchOpts()
		opts.K = 1
		res, err := ix.TopK(u, opts)
		if err != nil || len(res.Packages) == 0 {
			return 0, fmt.Errorf("quality: oracle search: %v", err)
		}
		opt := res.Packages[0].Utility
		base := 0.0
		for i := 0; i < qualityRandom; i++ {
			base += util(u, randomPackage(rng, len(sp.Items)))
		}
		base /= qualityRandom

		id := fmt.Sprintf("quality-%d", n)
		var sl *slate
		for round := 0; round < qualityRounds; round++ {
			if sl, err = be.recommend(g.req(), id, round == 0); err == nil {
				err = g.checkSlate(sl)
			}
			if err != nil {
				return 0, fmt.Errorf("quality: %w", err)
			}
			if round == qualityRounds-1 {
				break
			}
			best, bestU := 0, util(u, sl.all[0])
			for i := 1; i < len(sl.all); i++ {
				if v := util(u, sl.all[i]); v > bestU {
					best, bestU = i, v
				}
			}
			if err := be.click(g.req(), id, sl.all[best], sl.all); err != nil {
				return 0, fmt.Errorf("quality: %w", err)
			}
		}
		got := util(u, sl.rec[0])
		for _, p := range sl.rec[1:] {
			got = max(got, util(u, p))
		}
		if err := be.logout(g.req(), id); err != nil {
			return 0, fmt.Errorf("quality: %w", err)
		}
		if opt > base {
			total += (opt - got) / (opt - base)
		}
	}
	return total / float64(users), nil
}

func inBox(w []float64) bool {
	for _, x := range w {
		if x < -1 || x > 1 {
			return false
		}
	}
	return true
}

// randomPackage draws a size in 1..φ and that many distinct items.
func randomPackage(rng *rand.Rand, items int) []int {
	ids := make([]int, 0, stackPhi)
	for size := 1 + rng.Intn(stackPhi); len(ids) < size; {
		id := rng.Intn(items)
		dup := false
		for _, have := range ids {
			dup = dup || have == id
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	return ids
}
