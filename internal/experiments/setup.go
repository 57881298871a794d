package experiments

import (
	"fmt"
	"math/rand"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
)

// Params tunes the experiment scale. The paper's settings (§5.2–5.6) are
// the Scale=1 targets; the default Scale trims sizes so the whole suite
// runs in minutes on a laptop while preserving every comparison's shape.
type Params struct {
	// Scale multiplies workload sizes (1 = paper scale where feasible).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Verbose enables progress output on stderr from long experiments.
	Verbose bool
}

func (p Params) scaled(n int) int {
	if p.Scale <= 0 {
		p.Scale = 0.2
	}
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (p Params) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed + offset*1_000_003))
}

// buildSpace generates a dataset and wraps it into a feature space.
func buildSpace(kind string, n, m, maxSize int, rng *rand.Rand) (*feature.Space, error) {
	items, err := dataset.Generate(kind, n, m, rng)
	if err != nil {
		return nil, err
	}
	sp, err := feature.NewSpace(items, feature.CycledProfile(m), maxSize)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s space: %w", kind, err)
	}
	return sp, nil
}

// hiddenW draws a ground-truth weight vector uniformly from [-1,1]^d.
func hiddenW(d int, rng *rand.Rand) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	return w
}

// randomPackages draws count random packages (size 1..maxSize, distinct
// random items) from the space.
func randomPackages(sp *feature.Space, count int, rng *rand.Rand) []pkgspace.Package {
	out := make([]pkgspace.Package, count)
	for i := range out {
		out[i] = pkgspace.Random(rng, len(sp.Items), sp.MaxSize)
	}
	return out
}

// clickWorkload builds a preference graph the way the deployed system does
// (§3.3): rounds of σ-package slates, each click yielding σ−1 preferences
// with a common winner. Slates carry the current best three packages plus
// random ones, so winner-over-ex-winner edges accumulate transitive
// redundancy for the reduction to prune.
func clickWorkload(sp *feature.Space, packages, prefs int, w []float64, rng *rand.Rand) *prefgraph.Graph {
	pkgs := randomPackages(sp, packages, rng)
	vecs := make([][]float64, len(pkgs))
	utils := make([]float64, len(pkgs))
	for i, p := range pkgs {
		vecs[i] = pkgspace.Vector(sp, p)
		utils[i] = feature.Dot(w, vecs[i])
	}
	const sigma = 10
	g := prefgraph.New()
	var champions []int // indices of the best packages seen, best first
	added := 0
	for guard := 0; added < prefs && guard < prefs*4; guard++ {
		// Assemble the slate: standing champions + random packages.
		slate := append([]int(nil), champions...)
		for len(slate) < sigma {
			slate = append(slate, rng.Intn(len(pkgs)))
		}
		best := slate[0]
		for _, i := range slate[1:] {
			if utils[i] > utils[best] {
				best = i
			}
		}
		for _, i := range slate {
			if i == best || utils[i] == utils[best] {
				continue
			}
			if err := g.AddPreference(pkgs[best], pkgs[i]); err == nil {
				added++
				if added >= prefs {
					break
				}
			}
		}
		// Update the champions list (top 3 distinct seen so far).
		champions = updateChampions(champions, best, utils)
	}
	return g
}

func updateChampions(ch []int, cand int, utils []float64) []int {
	for _, c := range ch {
		if c == cand {
			return ch
		}
	}
	ch = append(ch, cand)
	// Insertion sort by utility descending; keep top 3.
	for i := len(ch) - 1; i > 0 && utils[ch[i]] > utils[ch[i-1]]; i-- {
		ch[i], ch[i-1] = ch[i-1], ch[i]
	}
	if len(ch) > 3 {
		ch = ch[:3]
	}
	return ch
}

// preferenceWorkload returns the reduced constraint set of `prefs`
// pairwise preferences over random packages, each oriented consistently
// with the hidden weight vector w (as real user clicks would be, §5.2's
// "randomly generated preferences").
func preferenceWorkload(sp *feature.Space, packages, prefs int, w []float64, rng *rand.Rand) []prefgraph.Constraint {
	pkgs := randomPackages(sp, packages, rng)
	vecs := make([][]float64, len(pkgs))
	for i, p := range pkgs {
		vecs[i] = pkgspace.Vector(sp, p)
	}
	g := prefgraph.New()
	added := 0
	for attempts := 0; added < prefs && attempts < 20*prefs+100; attempts++ {
		i, j := rng.Intn(len(pkgs)), rng.Intn(len(pkgs))
		if i == j {
			continue
		}
		ui := feature.Dot(w, vecs[i])
		uj := feature.Dot(w, vecs[j])
		if ui == uj {
			continue // ties carry no orientation
		}
		if ui < uj {
			i, j = j, i
		}
		// Consistent orientation never cycles; duplicate-signature pairs
		// are rejected by the graph and simply retried.
		if err := g.AddPreference(pkgs[i], pkgs[j]); err == nil {
			added++
		}
	}
	return g.Constraints(true, func(p pkgspace.Package) []float64 { return pkgspace.Vector(sp, p) })
}
