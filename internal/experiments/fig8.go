package experiments

import (
	"fmt"
	"os"

	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/search"
	"toppkg/internal/simulate"
	"toppkg/internal/stats"
)

// Fig8 reproduces Figure 8 (§5.6): elicitation effectiveness on the NBA
// dataset. For a population of hidden ground-truth utility functions, it
// runs full elicitation sessions (5 recommended + 5 random packages per
// round, MCMC sampling, EXP semantics) and reports how many clicks the
// system needs before the top-k recommendation list stabilizes, as the
// number of features grows. The paper's result: only a few clicks per
// query suffice.
func Fig8(p Params) ([]Table, error) {
	users := p.scaled(30)
	if users < 3 {
		users = 3
	}
	if users > 100 {
		users = 100
	}
	sampleCount := p.scaled(750)
	if sampleCount < 60 {
		sampleCount = 60
	}
	// Only tiny smoke scales shrink the session length: a 3-round session
	// still exercises the recommend→click→maintain loop end to end. Every
	// normal scale (including the 0.2 default) keeps the full 12 rounds
	// the convergence measurement needs.
	rounds := 12
	if p.Scale > 0 && p.Scale < 0.05 {
		rounds = 3
	}
	nbaAll := dataset.NBA(p.rng(8))

	t := Table{
		Title:  fmt.Sprintf("Figure 8: clicks to convergence vs features (NBA, %d users)", users),
		Header: []string{"features", "avg_clicks", "median", "max", "converged", "regret_mean"},
		Notes:  "paper shape: a handful of clicks suffices at every dimensionality; clicks grow mildly with features",
	}
	for _, m := range []int{2, 4, 6, 8, 10} {
		items := dataset.NBASelect(nbaAll, m)
		var clicks []float64
		var regrets []float64
		converged := 0
		for u := 0; u < users; u++ {
			eng, err := core.New(core.Config{
				Items:          items,
				Profile:        defaultProfile(m),
				MaxPackageSize: 5,
				K:              5,
				RandomCount:    5,
				SampleCount:    sampleCount,
				Seed:           p.Seed + int64(u)*131 + int64(m),
				// Bounded searches keep a full session fast.
				Search: search.Options{MaxQueue: 64, MaxAccessed: 300},
			})
			if err != nil {
				return nil, err
			}
			rng := p.rng(int64(800 + u*17 + m))
			user := simulate.NewRandomUser(eng.Space().Profile, rng)
			res, err := simulate.RunSession(eng, user, simulate.SessionConfig{
				MaxRounds: rounds, StableRounds: 2,
			}, rng)
			if err != nil {
				return nil, fmt.Errorf("fig8 m=%d user=%d: %w", m, u, err)
			}
			clicks = append(clicks, float64(res.Clicks))
			if res.Converged {
				converged++
			}
			if res.TrueTopUtility != 0 {
				regrets = append(regrets, res.TrueTopUtility-res.FinalTopUtility)
			}
			if p.Verbose {
				fmt.Fprintf(os.Stderr, "fig8 m=%d user=%d clicks=%d converged=%v\n",
					m, u, res.Clicks, res.Converged)
			}
		}
		s := stats.Summarize(clicks)
		t.Rows = append(t.Rows, cells(
			m,
			fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%.0f", s.Median),
			fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%d/%d", converged, users),
			fmt.Sprintf("%.3f", stats.Mean(regrets)),
		))
	}
	return []Table{t}, nil
}
