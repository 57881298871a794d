package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
)

// barrenAuditor is the test side of Index.barrenAudit: on every barren
// verdict it works out, from the run's state before the round, what the
// barren path must leave behind — the sweep alone: refresh, bound drop,
// keep, against an ηlo no child can move — lets expand run the round in
// full, and fails if the kernels changed anything: a child created, the
// heap touched, or Q+ not exactly the sweep's survivors.
type barrenAuditor struct {
	t       *testing.T
	label   string
	barren  int // verdicts seen
	refresh int // of them, with at least one lazy bound refresh in the sweep
}

// barrenShapeAllocs bounds what one search on the serve_static shape may
// allocate (TestBarrenShareServeShape): 586 before the membership bound was
// frozen for every bound-pruned run, four for its descriptors (the empty
// state is two), and one or two either way as expand's scratch slices now
// regrow on full rounds only.
const barrenShapeAllocs = 592

// The suite's two profiles: the serving workloads' mixed one (avg and min make
// it non-monotone under any weights) and the monotone one of large_*.
var (
	barrenMixed = []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum}
	barrenMono  = []feature.Agg{feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum}
)

type queuedPkg struct {
	p          *pkg
	ids        []int
	bound      float64
	boundRound int
}

// setBarrenAudit hooks (nil: unhooks) every run over ix, the sketch phase's
// over the representatives' index included.
func setBarrenAudit(ix *Index, hook func(*run) func()) {
	ix.barrenAudit = hook
	if ps := ix.part.Load(); ps != nil {
		ps.sketch.barrenAudit = hook
	}
}

func (a *barrenAuditor) audit(r *run) func() {
	a.barren++
	if !r.cands.full() || r.opts.DisableBoundPrune {
		a.t.Errorf("%s: barren verdict without a full heap under bound pruning", a.label)
	}
	etaLo := r.cands.kthUtility()
	created := r.created
	heap := slices.Clone(r.cands.xs)
	round := r.round + 1
	var want []queuedPkg
	refreshed := false
	for _, p := range r.qPlus {
		q := queuedPkg{p, slices.Clone(p.ids), p.bound, p.boundRound}
		if round-p.boundRound >= boundRefresh {
			q.bound, q.boundRound = r.upperExp(p.state), round
			refreshed = true
		}
		if q.bound <= etaLo || q.bound < r.floorL || !r.keep(p.state.Size, p.util, q.bound, etaLo, true) {
			continue
		}
		want = append(want, q)
	}
	if refreshed {
		a.refresh++
	}
	return func() {
		if r.round != round {
			a.t.Errorf("%s: round %d after the audited round, want %d", a.label, r.round, round)
		}
		if r.created != created {
			a.t.Errorf("%s: round %d created %d packages under a barren verdict", a.label, round, r.created-created)
		}
		if !slices.EqualFunc(r.cands.xs, heap, func(x, y pkgspace.Scored) bool {
			return math.Float64bits(x.Utility) == math.Float64bits(y.Utility) && slices.Equal(x.Pkg.IDs, y.Pkg.IDs)
		}) {
			a.t.Errorf("%s: round %d changed the candidate heap under a barren verdict", a.label, round)
		}
		if len(r.qPlus) != len(want) {
			a.t.Errorf("%s: round %d left %d packages in Q+, the barren sweep leaves %d", a.label, round, len(r.qPlus), len(want))
			return
		}
		for i, q := range want {
			if p := r.qPlus[i]; p != q.p || !slices.Equal(p.ids, q.ids) ||
				math.Float64bits(p.bound) != math.Float64bits(q.bound) || p.boundRound != q.boundRound {
				a.t.Errorf("%s: round %d: Q+[%d] is %v (bound %v @%d), the barren sweep leaves %v (bound %v @%d)",
					a.label, round, i, p.ids, p.bound, p.boundRound, q.ids, q.bound, q.boundRound)
				return
			}
		}
	}
}

// barrenSpace builds one data shape of the suite.
func barrenSpace(t *testing.T, kind string, n int, aggs []feature.Agg, nulls bool) *feature.Space {
	t.Helper()
	items, err := dataset.Generate(kind, n, len(aggs), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if nulls {
		for i := 0; i < len(items); i += 2 {
			items[i].Values[(i/2)%len(aggs)] = feature.Null
		}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(aggs...), 3)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// barrenWeights draws a weight vector: all positive for the monotone
// profile (heads and sketch-refine engage), origin-centred Gaussian — core's
// default prior — for the mixed one.
func barrenWeights(rng *rand.Rand, dims int, monotone bool) []float64 {
	w := make([]float64, dims)
	for d := range w {
		if monotone {
			w[d] = 0.05 + 0.95*rng.Float64()
		} else {
			w[d] = 0.5 * rng.NormFloat64()
		}
	}
	return w
}

// TestBarrenVerdictSound holds the barren verdict to its claim on every
// path a run can take: wherever exec declares a round barren, the full
// round creates no child and leaves created, the heap and Q+ exactly as the
// sweep alone does (barrenAuditor) — and the search that really skips the
// kernels returns the audited search's result, counters included.
func TestBarrenVerdictSound(t *testing.T) {
	oddOnes := func(it feature.Item) bool { return it.ID%2 == 1 }
	modes := []struct {
		name string
		set  func(*Options)
	}{
		{"paper", func(*Options) {}},
		{"expandall", func(o *Options) { o.ExpandAll = true }},
		{"predicates", func(o *Options) {
			o.Expand = pkgspace.MaxCount(2, oddOnes) // anti-monotone
			o.Candidate = pkgspace.MinCount(1, oddOnes)
		}},
	}
	verdicts := map[string]int{} // per axis value: barren verdicts audited
	refreshes, refined := 0, 0
	for _, monotone := range []bool{false, true} {
		for _, kind := range []string{"uni", "cor", "ant"} {
			for _, nulls := range []bool{false, true} {
				for _, beamed := range []bool{true, false} {
					// Uncapped runs enumerate: keep them small.
					n, clusters := 400, 20
					base := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
					if !beamed {
						n, clusters = 36, 6
						base = Options{K: 3, MaxQueue: -1}
					}
					aggs := barrenMixed
					if monotone {
						aggs = barrenMono
					}
					sp := barrenSpace(t, kind, n, aggs, nulls)
					for _, sketch := range []bool{false, true} {
						ix := NewIndex(sp)
						if sketch {
							// Engages for the monotone, predicate-free rows:
							// masked refine when beamed, exact refine uncapped.
							ix.ConfigurePartition(clusters, nil)
							ix.EnsurePartition(clusters)
						}
						for _, mode := range modes {
							opts := base
							mode.set(&opts)
							label := fmt.Sprintf("monotone=%t/%s/nulls=%t/beamed=%t/sketch=%t/%s", monotone, kind, nulls, beamed, sketch, mode.name)
							rng := rand.New(rand.NewSource(7))
							for v := 0; v < 3; v++ {
								u, err := feature.NewUtility(sp.Profile, barrenWeights(rng, len(aggs), monotone))
								if err != nil {
									t.Fatal(err)
								}
								a := &barrenAuditor{t: t, label: fmt.Sprintf("%s/v%d", label, v)}
								setBarrenAudit(ix, a.audit)
								audited, err := ix.TopK(u, opts)
								if err != nil {
									t.Fatal(err)
								}
								setBarrenAudit(ix, nil)
								skipped, err := ix.TopK(u, opts)
								if err != nil {
									t.Fatal(err)
								}
								if !assertSameResult(t, skipped, audited, a.label) || !reflect.DeepEqual(skipped, audited) {
									t.Errorf("%s: skipping barren rounds changed the search: %+v, audited %+v", a.label, skipped, audited)
								}
								for _, axis := range []string{
									fmt.Sprintf("monotone=%t", monotone), kind, fmt.Sprintf("nulls=%t", nulls),
									fmt.Sprintf("beamed=%t", beamed), fmt.Sprintf("sketch=%t", sketch), mode.name,
								} {
									verdicts[axis] += a.barren
								}
								refreshes += a.refresh
								if audited.RefineClustersOpened > 0 {
									refined += a.barren
								}
							}
						}
					}
				}
			}
		}
	}
	// The suite proves nothing about a path no verdict was reached on.
	for _, axis := range []string{
		"monotone=false", "monotone=true", "uni", "cor", "ant", "nulls=false", "nulls=true",
		"beamed=false", "beamed=true", "sketch=false", "sketch=true", "paper", "expandall", "predicates",
	} {
		if verdicts[axis] == 0 {
			t.Errorf("no barren verdict audited with %s", axis)
		}
	}
	if refreshes == 0 {
		t.Error("no audited barren round refreshed a queued bound")
	}
	if refined == 0 {
		t.Error("no barren verdict audited inside a sketch-refine search")
	}
	t.Logf("audited verdicts per axis value: %v; %d with a bound refresh, %d inside sketch-refine searches", verdicts, refreshes, refined)
}

// TestBarrenShareServeShape guards the gain where it is claimed: on the
// serve_static shape (uniform 1k, the mixed profile, origin prior, the
// serving beam) most rounds of a search must take the barren path — measured
// at three in four, and every one of them counted here skips the batch
// kernels in production — and freezing the membership bound's descriptors
// for every bound-pruned run must cost a search no more than their own
// allocations (barrenShapeAllocs).
func TestBarrenShareServeShape(t *testing.T) {
	sp := barrenSpace(t, "uni", 1000, barrenMixed, false)
	ix := NewIndex(sp)
	opts := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	rng := rand.New(rand.NewSource(7))
	barren, rounds := 0, 0
	ix.barrenAudit = func(*run) func() { barren++; return func() {} }
	var us []*feature.Utility
	for v := 0; v < 30; v++ {
		u, err := feature.NewUtility(sp.Profile, barrenWeights(rng, len(barrenMixed), false))
		if err != nil {
			t.Fatal(err)
		}
		us = append(us, u)
		r, ok := ix.newRun(u, opts, nil)
		if !ok {
			t.Fatal("degenerate run")
		}
		r.exec()
		rounds += r.round
	}
	ix.barrenAudit = nil
	share := float64(barren) / float64(rounds)
	t.Logf("%d of %d rounds barren (%.0f %%)", barren, rounds, 100*share)
	if share < 0.60 {
		t.Errorf("only %.0f %% of rounds took the barren path on the serve_static shape, want ≥ 60 %%", 100*share)
	}
	v := 0
	allocs := testing.AllocsPerRun(len(us), func() {
		if _, err := ix.TopK(us[v%len(us)], opts); err != nil {
			t.Fatal(err)
		}
		v++
	})
	t.Logf("%.0f allocations per search", allocs)
	if allocs > barrenShapeAllocs {
		t.Errorf("%.0f allocations per search on the serve_static shape, want ≤ %d", allocs, barrenShapeAllocs)
	}
}
