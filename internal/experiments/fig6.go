package experiments

import (
	"errors"
	"fmt"
	"time"

	"toppkg/internal/gaussmix"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// Fig6 reproduces Figure 6 (§5.3): overall time for top-k package
// recommendation split into sample generation and Top-k-Pkg search, under
// rejection (RS), importance (IS) and MCMC (MS) sampling, over the five
// datasets (UNI, PWR, COR, ANT, NBA), varying (top row) the number of
// samples and (bottom row) the number of features. Importance sampling is
// skipped above 5 features, as in the paper, because its grid-based center
// finding is exponential in the dimensionality.
func Fig6(p Params) ([]Table, error) {
	var tables []Table
	nItems := p.scaled(100000)
	const defFeatures = 5
	defPrefs := p.scaled(2000)

	sampleCounts := []int{1000, 5000}
	featureCounts := []int{2, 5, 8, 10}

	for _, kind := range []string{"uni", "pwr", "cor", "ant", "nba"} {
		// Top row: varying the number of samples at 5 features.
		t1 := Table{
			Title: fmt.Sprintf("Figure 6 (%s): time vs number of samples (features=%d)",
				kind, defFeatures),
			Header: []string{"samples", "sampler", "gen_ms", "topk_ms", "total_ms", "acceptance"},
			Notes: fmt.Sprintf("%d items, %d preferences, one Top-k-Pkg search per sample (TKP); paper shape: RS ≫ IS ≈ MS, RS sampling dominates",
				nItems, defPrefs),
		}
		for _, sc := range sampleCounts {
			rows, err := fig6Point(p, kind, nItems, defFeatures, p.scaled(sc), defPrefs, true)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				t1.Rows = append(t1.Rows, append(cells(p.scaled(sc)), r...))
			}
		}
		tables = append(tables, t1)

		// Bottom row: varying the number of features at 1000 samples.
		t2 := Table{
			Title:  fmt.Sprintf("Figure 6 (%s): time vs number of features (samples=%d)", kind, p.scaled(1000)),
			Header: []string{"features", "sampler", "gen_ms", "topk_ms", "total_ms", "acceptance"},
			Notes:  "importance sampling excluded beyond 5 features (grid center exponential in dims, §5.3)",
		}
		for _, m := range featureCounts {
			rows, err := fig6Point(p, kind, nItems, m, p.scaled(1000), defPrefs, m <= 5)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				t2.Rows = append(t2.Rows, append(cells(m), r...))
			}
		}
		tables = append(tables, t2)
	}
	return tables, nil
}

// fig6Point measures one (dataset, features, samples) cell for all
// applicable samplers, returning rows of
// [sampler, gen_ms, topk_ms, total_ms, acceptance].
func fig6Point(p Params, kind string, nItems, features, samples, prefs int, includeIS bool) ([][]string, error) {
	rng := p.rng(int64(6000 + features*31 + samples))
	sp, err := buildSpace(kind, nItems, features, 5, rng)
	if err != nil {
		return nil, err
	}
	w := hiddenW(features, rng)
	cs := preferenceWorkload(sp, p.scaled(5000), prefs, w, rng)
	v := sampling.NewValidator(features, cs)
	prior := gaussmix.DefaultPrior(features, 1, rng)
	ix := search.NewIndex(sp)

	// Attempt budgets bound the wall time of hopeless sampler/dimension
	// combinations; exhausting one yields an honest "timeout" row, the
	// analogue of the paper's chart-capped rejection bars.
	var samplers []sampling.Sampler
	samplers = append(samplers, &sampling.Rejection{Prior: prior, V: v})
	if includeIS {
		samplers = append(samplers, &sampling.Importance{Prior: prior, V: v})
	}
	samplers = append(samplers, &sampling.MCMC{Prior: prior, V: v})

	var rows [][]string
	for _, s := range samplers {
		srng := p.rng(int64(61 + len(s.Name())))
		start := time.Now()
		res, err := s.Sample(srng, samples)
		genSec := time.Since(start).Seconds()
		if err != nil {
			if errors.Is(err, sampling.ErrTooManyRejections) || errors.Is(err, sampling.ErrDimsTooHigh) {
				rows = append(rows, cells(s.Name(), "timeout", "-", "-", fmt.Sprintf("%.4f", res.Acceptance())))
				continue
			}
			return nil, fmt.Errorf("fig6 %s/%s: %w", kind, s.Name(), err)
		}

		// The figure times Top-k-Pkg against the sample count, so rank per
		// sample: TKP at σ = K = 5 (EXP searches once, under the mean).
		start = time.Now()
		_, err = ranking.Rank(ix, res.Samples, ranking.TKP, ranking.Options{
			K: 5,
			// Bounded per-sample searches: a beam and an access budget
			// (search.Options.MaxQueue, MaxAccessed).
			Search: search.Options{MaxQueue: 32, MaxAccessed: 100},
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 rank %s/%s: %w", kind, s.Name(), err)
		}
		topkSec := time.Since(start).Seconds()
		rows = append(rows, cells(
			s.Name(), ms(genSec), ms(topkSec), ms(genSec+topkSec),
			fmt.Sprintf("%.4f", res.Acceptance()),
		))
	}
	return rows, nil
}
