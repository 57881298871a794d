// Command topkpkg is an interactive-style demo of the package recommender:
// it generates (or synthesizes) a dataset, runs an elicitation session
// against a simulated user with a hidden utility function, and prints how
// the recommendations evolve with each click.
//
// Usage:
//
//	topkpkg -dataset nba -features 6 -k 5 -semantics exp -rounds 8
//	topkpkg -dataset uni -items 5000 -seed 3 -v
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
	"toppkg/internal/simulate"
)

func main() {
	var (
		kind     = flag.String("dataset", "nba", "dataset: uni, pwr, cor, ant, nba")
		items    = flag.Int("items", 2000, "item count (synthetic datasets)")
		features = flag.Int("features", 5, "feature count")
		phi      = flag.Int("phi", 5, "maximum package size φ")
		k        = flag.Int("k", 5, "recommended packages per slate")
		randomN  = flag.Int("random", 5, "random exploration packages per slate")
		samples  = flag.Int("samples", 500, "weight-vector samples")
		sem      = flag.String("semantics", "exp", "ranking semantics: exp, tkp, mpo")
		rounds   = flag.Int("rounds", 8, "elicitation rounds")
		seed     = flag.Int64("seed", 1, "random seed")
		noise    = flag.Float64("noise", 0, "probability the simulated user clicks randomly")
		verbose  = flag.Bool("v", false, "print each slate")
	)
	flag.Parse()

	if err := run(*kind, *items, *features, *phi, *k, *randomN, *samples,
		*sem, *rounds, *seed, *noise, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "topkpkg:", err)
		os.Exit(1)
	}
}

func run(kind string, items, features, phi, k, randomN, samples int,
	sem string, rounds int, seed int64, noise float64, verbose bool) error {
	if !(noise >= 0 && noise <= 1) {
		return fmt.Errorf("-noise %v is outside [0, 1]", noise)
	}
	rng := rand.New(rand.NewSource(seed))
	data, err := dataset.Generate(kind, items, features, rng)
	if err != nil {
		return err
	}
	semantics, err := ranking.ParseSemantics(sem)
	if err != nil {
		return err
	}
	profile := alternatingProfile(features)
	eng, err := core.New(core.Config{
		Items:          data,
		Profile:        profile,
		MaxPackageSize: phi,
		K:              k,
		RandomCount:    randomN,
		Semantics:      semantics,
		SampleCount:    samples,
		Seed:           seed,
		Search:         search.Options{MaxQueue: 64, MaxAccessed: 300},
	})
	if err != nil {
		return err
	}
	user := simulate.NewRandomUser(profile, rng)
	user.NoiseEps = noise

	fmt.Printf("dataset=%s items=%d features=%d φ=%d k=%d semantics=%s\n",
		kind, len(data), features, phi, k, semantics)
	fmt.Printf("hidden user weights: %s\n\n", fmtVec(user.U.W))

	prevKey := ""
	for round := 1; round <= rounds; round++ {
		slate, err := eng.Recommend()
		if err != nil {
			return err
		}
		key := strings.Join(ranking.Signatures(slate.Recommended), ";")
		changed := "changed"
		if key == prevKey {
			changed = "stable"
		}
		prevKey = key
		fmt.Printf("round %d (%s):\n", round, changed)
		for i, r := range slate.Recommended {
			truth := user.U.Score(pkgspace.Vector(eng.Space(), r.Pkg))
			fmt.Printf("  #%d %-24s score=%.4f trueU=%.4f %s\n",
				i+1, r.Pkg.String(), r.Score, truth, names(eng.Space(), r.Pkg, 3))
		}
		if verbose {
			for i, p := range slate.Random {
				fmt.Printf("  r%d %-24s (exploration)\n", i+1, p.String())
			}
		}
		pick := user.Choose(eng.Space(), slate.All, rng)
		if pick < 0 {
			break
		}
		fmt.Printf("  user clicks %s\n\n", slate.All[pick])
		if err := eng.Click(slate.All[pick], slate.All); err != nil {
			return err
		}
	}
	st := eng.Stats()
	fmt.Printf("session stats: feedback=%d active_constraints=%d replaced=%d cycles_skipped=%d\n",
		st.Feedback, st.ConstraintsActive, st.SamplesReplaced, st.CyclesSkipped)
	return nil
}

// alternatingProfile mirrors the experiment harness: sum, avg, max, min
// cycling over the features.
func alternatingProfile(m int) *feature.Profile {
	cycle := []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin}
	aggs := make([]feature.Agg, m)
	for i := range aggs {
		aggs[i] = cycle[i%len(cycle)]
	}
	return feature.SimpleProfile(aggs...)
}

func fmtVec(w []float64) string {
	parts := make([]string, len(w))
	for i, v := range w {
		parts[i] = fmt.Sprintf("%+.2f", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// names lists up to limit member names of a package.
func names(sp *feature.Space, p pkgspace.Package, limit int) string {
	var out []string
	for i, id := range p.IDs {
		if i >= limit {
			out = append(out, "…")
			break
		}
		out = append(out, sp.Items[id].Name)
	}
	return "[" + strings.Join(out, " ") + "]"
}
