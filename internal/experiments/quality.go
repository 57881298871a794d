package experiments

import (
	"fmt"
	"strings"

	"toppkg/internal/gaussmix"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
	"toppkg/internal/stats"
)

// Quality reproduces §5.4: with enough samples, the top-5 package lists
// produced by different sampling methods — and largely across ranking
// semantics — converge to very similar lists. Settings per the paper:
// 5000 samples, 1000 preferences, 4 features, 2 Gaussians (times Scale).
// Similarity is reported as Jaccard overlap and Kendall τ against the
// MCMC/EXP reference list.
func Quality(p Params) ([]Table, error) {
	rng := p.rng(54)
	const features = 4
	nSamples := p.scaled(5000)
	// Fewer preferences than Fig. 5's default: rejection sampling must
	// still terminate (its acceptance decays exponentially with the
	// constraint count), and the §5.4 claim is about sampler agreement,
	// not constraint volume.
	nPrefs := p.scaled(150)

	sp, err := buildSpace("nba", 0, features, 5, rng)
	if err != nil {
		return nil, err
	}
	w := hiddenW(features, rng)
	cs := preferenceWorkload(sp, p.scaled(5000), nPrefs, w, rng)
	v := sampling.NewValidator(features, cs)
	prior := gaussmix.DefaultPrior(features, 2, rng)
	ix := search.NewIndex(sp)

	pools := map[string][]sampling.Sample{}
	for _, s := range []sampling.Sampler{
		&sampling.Rejection{Prior: prior, V: v},
		&sampling.Importance{Prior: prior, V: v},
		&sampling.MCMC{Prior: prior, V: v},
	} {
		res, err := s.Sample(p.rng(540), nSamples)
		if err != nil {
			return nil, fmt.Errorf("quality %s: %w", s.Name(), err)
		}
		pools[s.Name()] = res.Samples
	}

	semantics := []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO}
	lists := map[string][]string{}
	for name, pool := range pools {
		for _, sem := range semantics {
			ranked, err := ranking.Rank(ix, pool, sem, ranking.Options{K: 5,
				Search: search.Options{MaxQueue: 128, MaxAccessed: 500}})
			if err != nil {
				return nil, fmt.Errorf("quality rank %s/%v: %w", name, sem, err)
			}
			lists[name+"/"+sem.String()] = ranking.Signatures(ranked)
		}
	}

	ref := lists["mcmc/EXP"]
	t := Table{
		Title: fmt.Sprintf("§5.4 sample quality: top-5 lists vs mcmc/EXP (%d samples, %d prefs, %d features, 2 Gaussians)",
			nSamples, nPrefs, features),
		Header: []string{"sampler/semantics", "top-5 signatures", "jaccard", "kendall_tau"},
		Notes:  "paper: given enough samples, lists from different samplers (and often semantics) nearly coincide",
	}
	for _, name := range []string{"rejection", "importance", "mcmc"} {
		for _, sem := range semantics {
			key := name + "/" + sem.String()
			l := lists[key]
			t.Rows = append(t.Rows, cells(
				key,
				"{"+strings.Join(l, "} {")+"}",
				fmt.Sprintf("%.2f", stats.Jaccard(ref, l)),
				fmt.Sprintf("%.2f", stats.KendallTau(ref, l)),
			))
		}
	}
	return []Table{t}, nil
}
