package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
)

// TestHeadScreenMatchesExact holds the membership screen to headBound: on
// every run that screens, the division-free estimate (headEst) of every
// drawable item stays within slack/10⁵ of the exact bound, and headBelow
// answers the exact comparison at bars the estimate decides (well clear of
// it) and at bars it cannot (the exact bound itself and its neighbours one
// ulp away, where only the exact path can tell). The rows cross mixed,
// monotone and random profiles of 1–8 dimensions, weights of both signs
// and zero, φ 1–5 and the three data shapes.
func TestHeadScreenMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	aggs := []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin}
	runs, decided, inconclusive := 0, 0, 0
	worst := 0.0 // largest |estimate − exact| / slack seen
	for trial := 0; trial < 120; trial++ {
		dims := 1 + rng.Intn(8)
		var profile []feature.Agg
		switch trial % 3 {
		case 0:
			profile = barrenMixed
		case 1:
			profile = barrenMono
		default:
			for range dims {
				profile = append(profile, aggs[rng.Intn(len(aggs))])
			}
		}
		phi := 1 + rng.Intn(5)
		kind := []string{"uni", "cor", "ant"}[trial%3]
		items, err := dataset.Generate(kind, 150, len(profile), rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(profile...), phi)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(sp)
		w := make([]float64, len(profile))
		for d := range w {
			switch rng.Intn(6) {
			case 0:
				w[d] = 0
			case 1:
				w[d] = 0.05 + rng.Float64() // positive: monotone-friendly
			default:
				w[d] = 0.5 * rng.NormFloat64()
			}
		}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d: %s φ=%d %v w=%v", trial, kind, phi, profile, w)
		r, ok := ix.newRun(u, Options{K: 3, MaxQueue: 128}, nil)
		if !ok {
			continue // every weight zero
		}
		if !r.screen {
			t.Errorf("%s: no nullable feature and no skip dimension, but the run does not screen", label)
			r.returnMem()
			continue
		}
		runs++
		tol := r.slack / 1e5
		for id := range int32(sp.N()) {
			est, exact := r.headEst(id), r.headBound(id)
			if d := math.Abs(est - exact); d > tol {
				t.Errorf("%s: item %d: estimate %v, headBound %v: off by %v > slack/10⁵ = %v", label, id, est, exact, d, tol)
			} else {
				worst = max(worst, d/r.slack)
			}
			for _, bar := range []float64{
				est - 2*r.slack, est + 2*r.slack, // decided by the estimate
				exact, math.Nextafter(exact, posInf), math.Nextafter(exact, negInf), // only the exact bound tells
			} {
				if r.headBelow(id, bar) != (exact < bar) {
					t.Errorf("%s: item %d: headBelow(%v) = %t, headBound %v", label, id, bar, !(exact < bar), exact)
				}
				if math.Abs(est-bar) > r.slack {
					decided++
				} else {
					inconclusive++
				}
			}
		}
		r.returnMem()
	}
	if runs < 100 || decided == 0 || inconclusive == 0 {
		t.Errorf("%d screening runs, %d decided and %d inconclusive comparisons: the suite covers too little", runs, decided, inconclusive)
	}
	t.Logf("%d runs; %d comparisons decided by the estimate, %d taken exactly; worst |estimate − exact| = %.3g·slack", runs, decided, inconclusive, worst)
}
