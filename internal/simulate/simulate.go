// Package simulate drives elicitation sessions against simulated users,
// reproducing the effectiveness study of §5.6: a user with a hidden
// ground-truth utility function is shown slates of recommended plus random
// packages and always clicks the one maximizing true utility (optionally
// with noise); the session ends when the recommended top-k list stabilizes.
package simulate

import (
	"fmt"
	"math/rand"
	"strings"

	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
)

// User is a simulated user with a hidden linear utility.
type User struct {
	// U is the ground-truth utility, unknown to the engine.
	U *feature.Utility
	// NoiseEps is the probability of a uniformly random click instead of
	// the utility-maximizing one (0 = perfectly rational).
	NoiseEps float64
}

// NewRandomUser draws a hidden weight vector uniformly from [-1,1]^d, the
// ground-truth model of §5.6.
func NewRandomUser(p *feature.Profile, rng *rand.Rand) *User {
	w := make([]float64, p.Dims())
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	u, err := feature.NewUtility(p, w)
	if err != nil {
		panic(err) // unreachable: dims match by construction
	}
	return &User{U: u}
}

// Choose returns the index of the slate package the user clicks: the true
// utility maximizer, or a random one with probability NoiseEps. Ties break
// toward the earlier slate position.
func (u *User) Choose(sp *feature.Space, slate []pkgspace.Package, rng *rand.Rand) int {
	if len(slate) == 0 {
		return -1
	}
	if u.NoiseEps > 0 && rng.Float64() < u.NoiseEps {
		return rng.Intn(len(slate))
	}
	best, bestU := 0, u.U.Score(pkgspace.Vector(sp, slate[0]))
	for i := 1; i < len(slate); i++ {
		if s := u.U.Score(pkgspace.Vector(sp, slate[i])); s > bestU {
			best, bestU = i, s
		}
	}
	return best
}

// SessionResult reports one elicitation session.
type SessionResult struct {
	// Clicks is the number of feedback rounds consumed before the
	// recommendation list stabilized (or MaxRounds was hit).
	Clicks int
	// Converged is true when the top-k list was identical for
	// StableRounds consecutive rounds.
	Converged bool
	// FinalTop is the recommended list at the end of the session.
	FinalTop []ranking.Ranked
	// TrueTopUtility and FinalTopUtility compare the user's true utility of
	// the best package versus the best recommended package (regret probe).
	TrueTopUtility, FinalTopUtility float64
}

// SessionConfig tunes RunSession.
type SessionConfig struct {
	// MaxRounds bounds the session length (default 30).
	MaxRounds int
	// StableRounds is how many consecutive identical top-k lists count as
	// convergence (default 2).
	StableRounds int
}

// RunSession runs one full elicitation loop: recommend, click, learn,
// repeat until the recommended list stops changing. The engine must be
// freshly configured; rng drives the user's (possible) noise.
func RunSession(e *core.Engine, u *User, cfg SessionConfig, rng *rand.Rand) (SessionResult, error) {
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 30
	}
	stable := cfg.StableRounds
	if stable <= 0 {
		stable = 2
	}
	var res SessionResult
	prevKey := ""
	run := 0
	for round := 0; round < maxRounds; round++ {
		slate, err := e.Recommend()
		if err != nil {
			return res, fmt.Errorf("simulate: round %d: %w", round, err)
		}
		key := strings.Join(ranking.Signatures(slate.Recommended), ";")
		if key == prevKey && key != "" {
			run++
			if run >= stable-1 {
				res.Converged = true
				res.FinalTop = slate.Recommended
				break
			}
		} else {
			run = 0
			prevKey = key
		}
		res.FinalTop = slate.Recommended
		pick := u.Choose(e.Space(), slate.All, rng)
		if pick < 0 {
			break
		}
		if err := e.Click(slate.All[pick], slate.All); err != nil {
			return res, fmt.Errorf("simulate: round %d click: %w", round, err)
		}
		res.Clicks++
	}
	// Regret probe: compare the user's true utility of the truly best
	// package against the best recommended one.
	if len(res.FinalTop) > 0 {
		best, err := e.TopKForWeights(u.U.W, 1)
		if err == nil && len(best) > 0 {
			res.TrueTopUtility = best[0].Utility
			res.FinalTopUtility = u.U.Score(pkgspace.Vector(e.Space(), res.FinalTop[0].Pkg))
		}
	}
	return res, nil
}
