package experiments

import (
	"fmt"
	"time"

	"toppkg/internal/gaussmix"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/sampling"
)

// Fig5 reproduces Figure 5 (§5.2): the benefit of pruning redundant
// preferences via transitive reduction for the overall constraint-checking
// time, varying (a) the number of features, (b) the number of samples, and
// (c) the number of Gaussians in the prior, with the remaining parameters
// at the paper's defaults (10000 preferences, 5000 packages, 1 Gaussian,
// 5 features, 1000 samples — multiplied by Scale).
func Fig5(p Params) ([]Table, error) {
	defPrefs := p.scaled(10000)
	defPackages := p.scaled(5000)
	defSamples := p.scaled(1000)
	const defFeatures, defGaussians = 5, 1

	var tables []Table

	// (a) Varying the number of features.
	ta := Table{
		Title:  "Figure 5(a): checking time vs number of features",
		Header: []string{"features", "constraints", "after_reduction", "before_ms", "after_ms", "speedup"},
		Notes:  "defaults: " + scaleNote(p, defPrefs, defPackages, defSamples),
	}
	for _, m := range []int{3, 4, 5, 6, 7} {
		row, err := fig5Point(p, m, defSamples, defGaussians, defPrefs, defPackages)
		if err != nil {
			return nil, err
		}
		ta.Rows = append(ta.Rows, row.cells(m))
	}
	tables = append(tables, ta)

	// (b) Varying the number of samples.
	tb := Table{
		Title:  "Figure 5(b): checking time vs number of samples",
		Header: []string{"samples", "constraints", "after_reduction", "before_ms", "after_ms", "speedup"},
	}
	for _, s := range []int{1000, 2000, 3000, 4000, 5000} {
		row, err := fig5Point(p, defFeatures, p.scaled(s), defGaussians, defPrefs, defPackages)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, row.cells(p.scaled(s)))
	}
	tables = append(tables, tb)

	// (c) Varying the number of Gaussians in the prior.
	tc := Table{
		Title:  "Figure 5(c): checking time vs number of Gaussians",
		Header: []string{"gaussians", "constraints", "after_reduction", "before_ms", "after_ms", "speedup"},
	}
	for _, g := range []int{1, 2, 3, 4, 5} {
		row, err := fig5Point(p, defFeatures, defSamples, g, defPrefs, defPackages)
		if err != nil {
			return nil, err
		}
		tc.Rows = append(tc.Rows, row.cells(g))
	}
	tables = append(tables, tc)
	return tables, nil
}

type fig5Row struct {
	constraints, reduced int
	beforeSec, afterSec  float64
}

func (r fig5Row) cells(x int) []string {
	speedup := 0.0
	if r.afterSec > 0 {
		speedup = r.beforeSec / r.afterSec
	}
	return cells(x, r.constraints, r.reduced, ms(r.beforeSec), ms(r.afterSec),
		fmt.Sprintf("%.2fx", speedup))
}

// fig5Point measures the time to validity-check `samples` weight vectors
// against the full vs reduced constraint set.
//
// The preferences are click-structured, as §3.3 assumes: each "round"
// shows a slate of σ = 10 packages containing the current best three plus
// randoms, and the hidden user's click yields σ−1 pairwise preferences
// with a common winner. Successive winners beat the standing champions,
// so a sizable fraction of the edges is transitively redundant — exactly
// what the reduction prunes. The checked samples are drawn near the hidden
// weight vector (as MCMC chain states are): mostly-valid vectors scan the
// whole constraint list, so checking cost tracks the constraint count.
func fig5Point(p Params, features, samples, gaussians, prefs, packages int) (fig5Row, error) {
	rng := p.rng(int64(5000 + features*100 + samples + gaussians*7))
	sp, err := buildSpace("uni", 2000, features, 3, rng)
	if err != nil {
		return fig5Row{}, err
	}
	w := hiddenW(features, rng)
	graph := clickWorkload(sp, packages, prefs, w, rng)

	vec := func(p pkgspace.Package) []float64 { return pkgspace.Vector(sp, p) }
	full := graph.Constraints(false, vec)
	reduced := graph.Constraints(true, vec)

	// Check fully valid samples (what MCMC chain states and retained pool
	// members are): they scan the entire constraint list, so the measured
	// time isolates the constraint-count effect instead of short-circuit
	// luck. gaussians widens the generating mixture without changing that.
	gen, err := gaussmix.New(componentsAround(w, gaussians)...)
	if err != nil {
		return fig5Row{}, err
	}
	vFull := sampling.NewValidator(features, full)
	draws := make([][]float64, 0, samples)
	for guard := 0; len(draws) < samples && guard < samples*4000; guard++ {
		d := gen.Sample(rng)
		if vFull.Valid(d, nil) {
			draws = append(draws, d)
		}
	}

	// Repeat the pass enough times for the clock to resolve the difference.
	const reps = 30
	check := func(cs []prefgraph.Constraint) float64 {
		v := sampling.NewValidator(features, cs)
		start := time.Now()
		valid := 0
		for r := 0; r < reps; r++ {
			for _, d := range draws {
				if v.Valid(d, nil) {
					valid++
				}
			}
		}
		_ = valid
		return time.Since(start).Seconds() / reps
	}
	row := fig5Row{constraints: len(full), reduced: len(reduced)}
	row.beforeSec = check(full)
	row.afterSec = check(reduced)
	return row, nil
}

// componentsAround builds k mixture components jittered around w, std 0.1.
func componentsAround(w []float64, k int) []gaussmix.Component {
	if k < 1 {
		k = 1
	}
	comps := make([]gaussmix.Component, k)
	for c := 0; c < k; c++ {
		mean := make([]float64, len(w))
		std := make([]float64, len(w))
		for j := range w {
			mean[j] = w[j] + 0.02*float64(c)
			std[j] = 0.1
		}
		comps[c] = gaussmix.Component{Weight: 1, Mean: mean, Std: std}
	}
	return comps
}

func scaleNote(p Params, prefs, packages, samples int) string {
	return fmt.Sprintf("%d preferences, %d packages, %d samples (scale %.2g of the paper's 10000/5000/1000)",
		prefs, packages, samples, p.Scale)
}
