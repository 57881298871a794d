package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
)

// barrenAuditor is the test side of Index.barrenAudit, which hands it every
// round a verdict is taken in.
//
// On a barren round (need = +∞), which runs elided, it works out from the
// run's state before the round what the full round's sweep would leave —
// refresh, bound drop, keep, against an ηlo no child can move — and fails if
// any package the sweep keeps could create its child with the item, if the
// elided round created a child or touched the heap, or if Q+ without its
// dead packages and the ones bounding ≤ ηlo is not exactly the sweep's
// survivors (order, bound bits, boundRound), or its ηup not theirs.
//
// On a round with the package verdict in effect (need finite) expand scores
// every queued package, and the auditor evaluates every package the verdict
// rules out — ScoreAfter and growBound, as expand would have — and fails if
// the child could be created, or if the claim the verdict rests on breaks:
// max(gu, bound) ≤ p.bound − Δ(t), with Δ(t) taken here from the cursors and
// the profile, not from the run's constants.
type barrenAuditor struct {
	t       *testing.T
	label   string
	barren  int // round verdicts seen
	refresh int // of them, with at least one lazy bound refresh in the sweep
	share   barrenShare
}

// barrenShare counts what the package verdict rules out: of the (package,
// round) pairs of the rounds it is in effect on, the ones whose bound — as
// queued, before the sweep refreshes it — is below need. Dead packages, which
// the sweep only releases, are no pairs.
type barrenShare struct{ ruledOut, pairs int }

// count adds one round's pairs, calling each (when given) on every package
// with whether the verdict rules it out.
func (s *barrenShare) count(r *run, need float64, each func(p *pkg, ruledOut bool)) {
	for _, p := range r.qPlus {
		if p.dead {
			continue
		}
		s.pairs++
		if p.bound < need {
			s.ruledOut++
		}
		if each != nil {
			each(p, p.bound < need)
		}
	}
}

// barrenShapeAllocs bounds what one search on the serve_static shape may
// allocate (TestBarrenShareServeShape): 75 measured plus one. A run's package
// shells, states, due queue and scratch come from the index's pool (runMem);
// most of what is left are the candidates' own id slices and the run's
// cursors and kernel plans.
const barrenShapeAllocs = 76

// largeUniShapeAllocs bounds the same on TestBarrenPackageShare's large_uni
// shape (uniform 20k, monotone profile, partition on): 197 measured plus one,
// over the sketch, the cluster bounding and the refine.
const largeUniShapeAllocs = 198

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
func setBarrenAudit(ix *Index, hook func(*run, int32, float64) func()) {
	ix.barrenAudit = hook
	if ps := ix.part.Load(); ps != nil {
		ps.sketch.barrenAudit = hook
	}
}

func (a *barrenAuditor) audit(r *run, item int32, need float64) func() {
	if !r.cands.full() {
		a.t.Errorf("%s: a verdict without a full heap", a.label)
	}
	if need < posInf {
		a.auditPackages(r, item, need)
		return func() {}
	}
	a.barren++
	etaLo := r.cands.kthUtility()
	created := r.created
	heap := slices.Clone(r.cands.xs)
	round := r.round + 1
	phi := r.ix.space.MaxSize
	var want []queuedPkg
	etaUp := negInf
	refreshed := false
	for _, p := range r.qPlus {
		if p.dead {
			continue
		}
		q := queuedPkg{p, slices.Clone(p.ids), p.bound, p.boundRound}
		if round-p.boundRound >= boundRefresh {
			q.bound, q.boundRound = r.upperExp(p.state), round
			refreshed = true
		}
		if q.bound <= etaLo || q.bound < r.floorL {
			continue
		}
		// What the full round would score: its child must be impossible.
		gu, bound := p.state.ScoreAfter(r.scorePlan, item), negInf
		if p.state.Size+1 < phi {
			bound = r.growBound(p.state, item, r.padModes, r.padTaus)
		}
		if gu > etaLo || bound > etaLo {
			a.t.Errorf("%s: round %d: package %v would create its child with item %d under a barren verdict: gu %v, bound %v, ηlo %v",
				a.label, round, p.ids, item, gu, bound, etaLo)
		}
		if !r.keep(p.state.Size, p.util, q.bound, etaLo) {
			continue
		}
		want = append(want, q)
		etaUp = max(etaUp, q.bound)
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
		// The termination verdict, and ηup's bits whenever the sweep keeps any.
		if (r.etaUp <= etaLo) != (etaUp <= etaLo) || (len(want) > 0 && math.Float64bits(r.etaUp) != math.Float64bits(etaUp)) {
			a.t.Errorf("%s: round %d: ηup %v after the elided round, the sweep's %v (ηlo %v)", a.label, round, r.etaUp, etaUp, etaLo)
		}
		// When the sweep keeps nothing, Q+ must be empty: exec's exit and
		// orphan-drain guard read its length.
		if len(want) == 0 && len(r.qPlus) > 0 {
			a.t.Errorf("%s: round %d left %d packages in Q+, the sweep none", a.label, round, len(r.qPlus))
		}
		var got []*pkg
		for _, p := range r.qPlus {
			if !p.dead && p.bound > etaLo {
				got = append(got, p)
			}
		}
		if len(got) != len(want) {
			a.t.Errorf("%s: round %d left %d live packages bounding above ηlo in Q+, the sweep leaves %d", a.label, round, len(got), len(want))
			return
		}
		for i, q := range want {
			if p := got[i]; p != q.p || !slices.Equal(p.ids, q.ids) ||
				math.Float64bits(p.bound) != math.Float64bits(q.bound) || p.boundRound != q.boundRound {
				a.t.Errorf("%s: round %d: live Q+[%d] is %v (bound %v @%d), the sweep leaves %v (bound %v @%d)",
					a.label, round, i, p.ids, p.bound, p.boundRound, q.ids, q.bound, q.boundRound)
				return
			}
		}
	}
}

// auditPackages checks one round's package verdicts before the round runs.
func (a *barrenAuditor) auditPackages(r *run, item int32, need float64) {
	if !r.fastPad {
		a.t.Errorf("%s: a package verdict with a pad descriptor that is not PadTau", a.label)
		return
	}
	sp := r.ix.space
	etaLo, phi := r.cands.kthUtility(), float64(sp.MaxSize)
	delta, mag, slack := 0.0, 0.0, 0.0 // Δ(t), Σ|w|·A/|scale| and 2⁻³⁰ of it, sums × φ
	for li := range r.lists {
		lc := &r.lists[li]
		w, scale := r.u.W[lc.dim], sp.Scale(lc.dim)
		short := w * (lc.tau - lc.col[item])
		if !(short >= 0) {
			a.t.Errorf("%s: drawn item %d beats τ on dimension %d: w·(τ−t) = %v", a.label, item, lc.dim, short)
		}
		top := max(math.Abs(lc.col[lc.ids[0]]), math.Abs(lc.col[lc.ids[len(lc.ids)-1]]))
		m := math.Abs(w) * top / math.Abs(scale)
		mag += m
		switch sp.Profile.Entry(lc.dim).Agg {
		case feature.AggSum:
			delta += short / scale
			m *= phi
		case feature.AggAvg:
			delta += short / (scale * phi)
		}
		slack += 0x1p-30 * m
	}
	tol := 1e-12 * mag
	if math.Abs(r.slack-slack) > 1e-9*slack {
		a.t.Errorf("%s: slack %v, want 2⁻³⁰·Σ|w|·A/|scale| (sums × φ) = %v", a.label, r.slack, slack)
	}
	if want := etaLo - r.slack + delta; math.Abs(need-want) > tol {
		a.t.Errorf("%s: need %v, want ηlo − slack + Δ(t) = %v", a.label, need, want)
	}
	a.share.count(r, need, func(p *pkg, ruledOut bool) {
		gu, bound := p.state.ScoreAfter(r.scorePlan, item), negInf
		if p.state.Size+1 < sp.MaxSize {
			bound = r.growBound(p.state, item, r.padModes, r.padTaus)
		}
		if ruledOut && (gu > etaLo || bound > etaLo) {
			a.t.Errorf("%s: round %d: ruled-out package %v (bound %v < need %v) would create its child with item %d: gu %v, bound %v, ηlo %v",
				a.label, r.round+1, p.ids, p.bound, need, item, gu, bound, etaLo)
		}
		if got := max(gu, bound); got > p.bound-delta+tol {
			a.t.Errorf("%s: round %d: package %v with item %d: max(gu, bound) = %v above p.bound − Δ(t) = %v − %v",
				a.label, r.round+1, p.ids, item, got, p.bound, delta)
		}
	})
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

// TestBarrenVerdictSound holds both barren verdicts to their claims on every
// path a run can take: wherever exec declares a round barren, no package the
// full round's sweep keeps could create its child, and the elided round
// leaves created, the heap, ηup and Q+'s live packages above ηlo exactly as
// that sweep does; wherever expand rules a package out, its child could not
// be created and the deficit inequality holds (barrenAuditor) — and the
// search that really skips the package work returns the audited search's
// result, counters included.
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
	verdicts := map[string]int{} // per axis value: barren rounds audited
	ruledOut := map[string]int{} // per axis value: ruled-out packages audited
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
							// Engages for the beamed monotone, predicate-free
							// rows; uncapped runs search unpartitioned.
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
									t.Errorf("%s: skipping ruled-out packages changed the search: %+v, audited %+v", a.label, skipped, audited)
								}
								for _, axis := range []string{
									fmt.Sprintf("monotone=%t", monotone), kind, fmt.Sprintf("nulls=%t", nulls),
									fmt.Sprintf("beamed=%t", beamed), fmt.Sprintf("sketch=%t", sketch), mode.name,
								} {
									verdicts[axis] += a.barren
									ruledOut[axis] += a.share.ruledOut
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
		// Nullable list features turn fastPad off, and the package verdict
		// with it (auditPackages fails a verdict taken without fastPad).
		if (ruledOut[axis] == 0) != (axis == "nulls=true") {
			t.Errorf("%d packages ruled out and audited with %s", ruledOut[axis], axis)
		}
	}
	if refreshes == 0 {
		t.Error("no audited barren round refreshed a queued bound")
	}
	if refined == 0 {
		t.Error("no barren verdict audited inside a sketch-refine search")
	}
	t.Logf("audited barren rounds per axis value: %v; %d with a bound refresh, %d inside sketch-refine searches", verdicts, refreshes, refined)
	t.Logf("audited ruled-out packages per axis value: %v", ruledOut)
}

// TestBarrenShareServeShape guards the gain where it is claimed: on the
// serve_static shape (uniform 1k, the mixed profile, origin prior, the
// serving beam) most rounds of a search must take the barren path — measured
// at three in four, and every one of them counted here is elided in
// production — and a search must allocate no more than barrenShapeAllocs.
func TestBarrenShareServeShape(t *testing.T) {
	sp := barrenSpace(t, "uni", 1000, barrenMixed, false)
	ix := NewIndex(sp)
	opts := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	rng := rand.New(rand.NewSource(7))
	barren, rounds := 0, 0
	ix.barrenAudit = func(_ *run, _ int32, need float64) func() {
		if need == posInf {
			barren++
		}
		return func() {}
	}
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
	guardSearchAllocs(t, "serve_static", ix, us, opts, barrenShapeAllocs)
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// guardSearchAllocs fails the test when a search over ix, cycling through
// us, allocates more than limit. It measures a search with the index's
// memory pool (runMem) in steady state: warmed by every vector on the one P
// the measurement runs on (AllocsPerRun's), whose slot the pool then never
// misses, and with the collector, which would empty the pool, off.
func guardSearchAllocs(t *testing.T, shape string, ix *Index, us []*feature.Utility, opts Options, limit int) {
	t.Helper()
	if raceEnabled {
		t.Logf("%s: allocation guard skipped under the race detector", shape)
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, u := range us {
		if _, err := ix.TopK(u, opts); err != nil {
			t.Fatal(err)
		}
	}
	v := 0
	allocs := testing.AllocsPerRun(len(us), func() {
		if _, err := ix.TopK(us[v%len(us)], opts); err != nil {
			t.Fatal(err)
		}
		v++
	})
	t.Logf("%s: %.0f allocations per search", shape, allocs)
	if allocs > float64(limit) {
		t.Errorf("%s: %.0f allocations per search, want ≤ %d", shape, allocs, limit)
	}
}

// TestBarrenPackageShare guards the package verdict where its gain is
// claimed: of the (package, round) pairs of the rounds it is in effect on —
// full rounds with a full heap and every pad descriptor PadTau — it must rule
// out most, on the serve_static shape (measured 84 %) and on the large_uni
// one, uniform data under the monotone profile with the Gaussian(0.5, 0.15)
// prior, heads and partition on (measured 83 % at 20k items, 75 % at 100k).
// On the large_uni shape a search must also allocate no more than
// largeUniShapeAllocs, as barrenShapeAllocs bounds the serve_static one.
func TestBarrenPackageShare(t *testing.T) {
	opts := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	for _, shape := range []struct {
		name     string
		n        int
		aggs     []feature.Agg
		monotone bool
		want     float64
		allocs   int // per search, at most (0: unguarded)
	}{
		{"serve_static", 1000, barrenMixed, false, 0.70, 0},
		{"large_uni at 20k", 20000, barrenMono, true, 0.60, largeUniShapeAllocs},
	} {
		sp := barrenSpace(t, "uni", shape.n, shape.aggs, false)
		ix := NewIndex(sp)
		if shape.monotone && ix.EnsurePartition(0) == nil {
			t.Fatal("no partition")
		}
		var share barrenShare
		setBarrenAudit(ix, func(r *run, _ int32, need float64) func() {
			if need < posInf {
				share.count(r, need, nil)
			}
			return func() {}
		})
		rng := rand.New(rand.NewSource(7))
		refined := 0
		var us []*feature.Utility
		for v := 0; v < 30; v++ {
			w := barrenWeights(rng, len(shape.aggs), false)
			if shape.monotone { // large_*'s prior, not the suite's uniform one
				for d := range w {
					w[d] = 0.5 + 0.15*rng.NormFloat64()
				}
			}
			u, err := feature.NewUtility(sp.Profile, w)
			if err != nil {
				t.Fatal(err)
			}
			us = append(us, u)
			res, err := ix.TopK(u, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.RefineClustersOpened > 0 {
				refined++
			}
		}
		setBarrenAudit(ix, nil)
		got := float64(share.ruledOut) / float64(share.pairs)
		t.Logf("%s: %d of %d (package, round) pairs ruled out (%.1f %%); %d of 30 searches sketch-refined",
			shape.name, share.ruledOut, share.pairs, 100*got, refined)
		if got < shape.want {
			t.Errorf("%s: the package verdict ruled out %.1f %% of pairs, want ≥ %.0f %%", shape.name, 100*got, 100*shape.want)
		}
		if shape.monotone && refined < 25 {
			t.Errorf("%s: only %d of 30 searches engaged the partition", shape.name, refined)
		}
		if shape.allocs > 0 {
			guardSearchAllocs(t, shape.name, ix, us, opts, shape.allocs)
		}
	}
}
