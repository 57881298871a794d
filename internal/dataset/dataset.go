// Package dataset generates the evaluation datasets of §5: the four
// synthetic distributions obtained by adapting the skyline benchmark
// generator of Börzsönyi et al. [4] — independent uniform (UNI), power law
// (PWR, α = 2.5), correlated (COR) and anti-correlated (ANT) — plus a
// synthesizer for the NBA career-statistics dataset.
//
// The paper's NBA data came from databasebasketball.com (now defunct):
// 3705 players, 17 career-statistic features, of which 10 were used. NBA
// reproduces that shape — same cardinality and dimensionality, a latent
// skill factor inducing the strong cross-feature correlations of real
// career stats, power-law playing time, and nulls on the three-point
// percentage of early-era players — so every experiment that consumed the
// real file exercises identical code paths.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"toppkg/internal/feature"
)

// UNI generates n items with m independent features uniform in [0,1].
func UNI(n, m int, rng *rand.Rand) []feature.Item {
	items := make([]feature.Item, n)
	for i := range items {
		vals := make([]float64, m)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		items[i] = feature.Item{ID: i, Name: name("uni", i), Values: vals}
	}
	return items
}

// PWR generates n items with m independent power-law features
// (density ∝ x^−α, α = alpha, default 2.5 per §5) normalized into [0,1].
func PWR(n, m int, alpha float64, rng *rand.Rand) []feature.Item {
	if alpha <= 1 {
		alpha = 2.5
	}
	raw := make([][]float64, n)
	maxV := make([]float64, m)
	for i := range raw {
		vals := make([]float64, m)
		for j := range vals {
			// Inverse-CDF sampling of a Pareto with x_min = 1:
			// x = (1-u)^(-1/(α-1)).
			u := rng.Float64()
			vals[j] = math.Pow(1-u, -1/(alpha-1))
			if vals[j] > maxV[j] {
				maxV[j] = vals[j]
			}
		}
		raw[i] = vals
	}
	items := make([]feature.Item, n)
	for i := range items {
		for j := range raw[i] {
			raw[i][j] /= maxV[j]
		}
		items[i] = feature.Item{ID: i, Name: name("pwr", i), Values: raw[i]}
	}
	return items
}

// COR generates n items whose m features are positively correlated
// (Börzsönyi-style: points scattered tightly around the diagonal).
func COR(n, m int, rng *rand.Rand) []feature.Item {
	items := make([]feature.Item, n)
	for i := range items {
		base := rng.Float64()
		vals := make([]float64, m)
		for j := range vals {
			vals[j] = clamp01(base + rng.NormFloat64()*0.08)
		}
		items[i] = feature.Item{ID: i, Name: name("cor", i), Values: vals}
	}
	return items
}

// ANT generates n items whose m features are anti-correlated
// (Börzsönyi-style: points near the hyperplane Σv = m/2, so an item good
// on one feature tends to be poor on the others).
func ANT(n, m int, rng *rand.Rand) []feature.Item {
	items := make([]feature.Item, n)
	for i := range items {
		vals := make([]float64, m)
		// Draw a point on the simplex scaled to sum m/2, then jitter.
		sum := 0.0
		for j := range vals {
			vals[j] = -math.Log(1 - rng.Float64()) // Exp(1): Dirichlet via normalization
			sum += vals[j]
		}
		target := float64(m) / 2
		for j := range vals {
			vals[j] = clamp01(vals[j]/sum*target + rng.NormFloat64()*0.03)
		}
		items[i] = feature.Item{ID: i, Name: name("ant", i), Values: vals}
	}
	return items
}

// NBAPlayers and NBAFeatures are the cardinality and width of the paper's
// NBA dataset.
const (
	NBAPlayers  = 3705
	NBAFeatures = 17
)

// NBA synthesizes the NBA career-statistics dataset: NBAPlayers items with
// NBAFeatures features, all normalized to [0,1]. A latent skill in (0,1)
// and a power-law-ish career length drive the counting stats, so features
// are strongly (but not perfectly) correlated, as in real career data;
// percentage stats are weakly correlated with skill; three_pct is Null for
// roughly a quarter of players (the pre-three-point-line era).
func NBA(rng *rand.Rand) []feature.Item {
	items := make([]feature.Item, NBAPlayers)
	maxV := make([]float64, NBAFeatures)
	raw := make([][]float64, NBAPlayers)
	for i := 0; i < NBAPlayers; i++ {
		skill := math.Pow(rng.Float64(), 2) // squashed: most players are role players
		career := math.Pow(rng.Float64(), 1.6)
		vol := skill * career // volume factor behind counting stats

		v := make([]float64, NBAFeatures)
		noise := func(s float64) float64 { return math.Max(0, 1+rng.NormFloat64()*s) }
		v[0] = career * 1200 * noise(0.15)                            // games
		v[1] = vol * 38000 * noise(0.2)                               // minutes
		v[2] = vol * 26000 * noise(0.25)                              // points
		v[3] = vol * 11000 * noise(0.35)                              // rebounds
		v[4] = vol * 6500 * noise(0.45)                               // assists
		v[5] = vol * 1800 * noise(0.4)                                // steals
		v[6] = vol * 1500 * noise(0.6)                                // blocks
		v[7] = clamp(0.38+0.12*skill+rng.NormFloat64()*0.04, 0, 0.7)  // fg%
		v[8] = clamp(0.68+0.15*skill+rng.NormFloat64()*0.06, 0, 0.95) // ft%
		if rng.Float64() < 0.25 {
			v[9] = feature.Null // pre-1979 era: no three-point line
		} else {
			v[9] = clamp(0.25+0.12*skill+rng.NormFloat64()*0.07, 0, 0.5) // 3p%
		}
		v[10] = vol * 2600 * noise(0.3)                     // turnovers (volume-driven)
		v[11] = career * 2800 * noise(0.25)                 // fouls
		v[12] = career * 20 * noise(0.1)                    // seasons
		v[13] = vol * 180 * noise(0.3)                      // win shares
		v[14] = vol * vol * 500 * noise(0.5)                // double-doubles (superstar-skewed)
		v[15] = math.Floor(skill * skill * 15 * noise(0.3)) // all-star selections
		v[16] = vol * 20000 * noise(0.2)                    // efficiency
		raw[i] = v
		for j, x := range v {
			if !feature.IsNull(x) && x > maxV[j] {
				maxV[j] = x
			}
		}
	}
	for i := range raw {
		for j := range raw[i] {
			if feature.IsNull(raw[i][j]) {
				continue
			}
			if maxV[j] > 0 {
				raw[i][j] /= maxV[j]
			}
		}
		items[i] = feature.Item{ID: i, Name: fmt.Sprintf("player%04d", i), Values: raw[i]}
	}
	return items
}

// NBASelect returns a copy of the items restricted to nFeatures of the 17
// features, chosen deterministically (the paper randomly selected 10 of
// 17). The selection interleaves counting and percentage stats.
func NBASelect(items []feature.Item, nFeatures int) []feature.Item {
	order := [...]int{2, 3, 4, 7, 0, 5, 8, 6, 13, 16, 1, 10, 11, 12, 14, 15, 9}
	if nFeatures > len(order) {
		nFeatures = len(order)
	}
	sel := order[:nFeatures]
	out := make([]feature.Item, len(items))
	for i := range items {
		vals := make([]float64, nFeatures)
		for j, f := range sel {
			vals[j] = items[i].Values[f]
		}
		out[i] = feature.Item{ID: items[i].ID, Name: items[i].Name, Values: vals}
	}
	return out
}

// Generate dispatches by dataset name: "uni", "pwr", "cor", "ant" (n×m) or
// "nba" (fixed size; m selects the first m of the 10 chosen features).
func Generate(kind string, n, m int, rng *rand.Rand) ([]feature.Item, error) {
	switch kind {
	case "uni", "UNI":
		return UNI(n, m, rng), nil
	case "pwr", "PWR":
		return PWR(n, m, 2.5, rng), nil
	case "cor", "COR":
		return COR(n, m, rng), nil
	case "ant", "ANT":
		return ANT(n, m, rng), nil
	case "nba", "NBA":
		return NBASelect(NBA(rng), m), nil
	}
	return nil, fmt.Errorf("dataset: unknown kind %q", kind)
}

func name(prefix string, i int) string { return fmt.Sprintf("%s%06d", prefix, i) }

func clamp01(v float64) float64 { return clamp(v, 0, 1) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
