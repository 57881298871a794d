package ranking

import (
	"fmt"
	"math/rand"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// exactOptions are the brute-force-grade search settings: no line-3
// pruning heuristic and no queue cap, so Top-k-Pkg is exact.
var exactOptions = search.Options{ExpandAll: true, MaxQueue: -1}

// oracleTrial is one randomized configuration: a small random space, a
// sample pool with deliberately injected exact duplicates, and a K.
type oracleTrial struct {
	sp      *feature.Space
	ix      *search.Index
	samples []sampling.Sample
	k       int
	dups    int // injected duplicate samples
}

// newOracleTrial builds a deterministic random trial. Item values and
// weights are dyadic rationals (multiples of 1/64) so aggregate arithmetic
// stays exact and cross-implementation comparisons are not at the mercy of
// floating-point summation order.
func newOracleTrial(t *testing.T, seed int64) *oracleTrial {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	aggs := []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin}
	n := 3 + rng.Intn(5)
	d := 1 + rng.Intn(3)
	phi := 1 + rng.Intn(3)
	entries := make([]feature.Agg, d)
	for i := range entries {
		entries[i] = aggs[rng.Intn(len(aggs))]
	}
	items := make([]feature.Item, n)
	for i := range items {
		vals := make([]float64, d)
		for j := range vals {
			vals[j] = float64(1+rng.Intn(64)) / 64
		}
		items[i] = feature.Item{ID: i, Values: vals}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(entries...), phi)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	tr := &oracleTrial{sp: sp, ix: search.NewIndex(sp), k: 1 + rng.Intn(3)}
	ns := 6 + rng.Intn(8)
	for len(tr.samples) < ns {
		w := make([]float64, d)
		for j := range w {
			w[j] = float64(rng.Intn(129)-64) / 64
		}
		q := 0.5 + rng.Float64()
		tr.samples = append(tr.samples, sampling.Sample{W: w, Q: q})
		if rng.Intn(3) == 0 && len(tr.samples) < ns {
			// Exact duplicate with its own importance weight: the dedup
			// layer must share the search yet count both Qs.
			tr.samples = append(tr.samples, sampling.Sample{W: append([]float64(nil), w...), Q: 0.5 + rng.Float64()})
			tr.dups++
		}
	}
	return tr
}

// plainResults is the unbatched reference path: one sequential TopK per
// sample, no dedup, no cache.
func plainResults(t *testing.T, tr *oracleTrial, so search.Options) []search.Result {
	t.Helper()
	out := make([]search.Result, len(tr.samples))
	for i := range tr.samples {
		u, err := feature.NewUtility(tr.sp.Profile, tr.samples[i].W)
		if err != nil {
			t.Fatal(err)
		}
		out[i], err = tr.ix.TopK(u, so)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkPerSampleAgainstEnumeration cross-checks every per-sample exact
// search list against the independent full-enumeration implementation.
// The two compute utilities in different floating-point association
// orders, so comparison is rank-wise utility within tol: a package
// mismatch at a rank is acceptable exactly when it is such an FP tie.
func checkPerSampleAgainstEnumeration(t *testing.T, tr *oracleTrial, results []search.Result, k int, trial int) {
	t.Helper()
	for i := range tr.samples {
		u, err := feature.NewUtility(tr.sp.Profile, tr.samples[i].W)
		if err != nil {
			t.Fatal(err)
		}
		want := pkgspace.BruteForceTopK(tr.sp, u, k)
		got := results[i].Packages
		if len(got) != len(want) {
			t.Fatalf("trial %d sample %d: search found %d packages, enumeration %d", trial, i, len(got), len(want))
		}
		for r := range got {
			if d := got[r].Utility - want[r].Utility; d > 1e-9 || d < -1e-9 {
				t.Fatalf("trial %d sample %d rank %d: search %s=%.17g, enumeration %s=%.17g",
					trial, i, r, got[r].Pkg, got[r].Utility, want[r].Pkg, want[r].Utility)
			}
		}
	}
}

func describe(rs []Ranked) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s=%.17g ", r.Pkg.Signature(), r.Score)
	}
	return s
}

func sameRanked(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pkg.Signature() != b[i].Pkg.Signature() || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestPipelineMatchesOracle is the batching pipeline's correctness
// contract: for ≥200 seeded trials under the per-sample semantics (TKP and
// MPO), the batched pipeline (dedup → cache) returns slates bit-identical
// to the unbatched path AND to the brute-force enumeration oracle
// (MaxQueue: -1, the exhaustive queue), cold and warm. The per-sample lists are additionally cross-checked against an
// independent full-enumeration implementation.
func TestPipelineMatchesOracle(t *testing.T) {
	const trials = 210
	for trial := 0; trial < trials; trial++ {
		tr := newOracleTrial(t, int64(1000+trial))
		cache := NewCache(256)
		for _, sem := range []Semantics{TKP, MPO} {
			opts := Options{K: tr.k, Search: exactOptions}
			so := searchOptions(sem, opts)

			// Reference: unbatched per-sample searches + shared aggregation.
			refResults := plainResults(t, tr, so)
			base, err := aggregate(tr.samples, refResults, sem, opts)
			if err != nil {
				t.Fatalf("trial %d %v: reference: %v", trial, sem, err)
			}
			if sem == TKP { // per-sample lists are semantics-independent
				checkPerSampleAgainstEnumeration(t, tr, refResults, so.K, trial)
			}

			// Oracle: same searches with the default (capped) queue must be
			// bit-identical on these spaces — the cap is never reached, so
			// any divergence would be a pipeline bug, not a beam effect.
			capped := opts
			capped.Search.MaxQueue = 0 // DefaultMaxQueue
			oracle, err := aggregate(tr.samples, plainResults(t, tr, searchOptions(sem, capped)), sem, capped)
			if err != nil {
				t.Fatalf("trial %d %v: capped: %v", trial, sem, err)
			}
			if !sameRanked(base, oracle) {
				t.Fatalf("trial %d %v: capped search disagrees with MaxQueue:-1 oracle:\ncapped %s\noracle %s",
					trial, sem, describe(oracle), describe(base))
			}

			// Pipeline: dedup + cache, cold then warm.
			for pass := 0; pass < 2; pass++ {
				var m Metrics
				popts := opts
				popts.Cache = cache
				popts.Metrics = &m
				got, err := Rank(tr.ix, tr.samples, sem, popts)
				if err != nil {
					t.Fatalf("trial %d %v pass %d: %v", trial, sem, pass, err)
				}
				if !sameRanked(got, base) {
					t.Fatalf("trial %d %v pass %d: pipeline slate differs:\npipeline %s\nplain    %s",
						trial, sem, pass, describe(got), describe(base))
				}
				if m.Samples != len(tr.samples) || m.Distinct > m.Samples {
					t.Fatalf("trial %d %v: bad metrics %+v", trial, sem, m)
				}
				if tr.dups > 0 && m.Distinct == m.Samples {
					t.Fatalf("trial %d %v: %d injected duplicates not deduped: %+v", trial, sem, tr.dups, m)
				}
				if pass > 0 {
					// The cold run filled the cache for this semantics'
					// options.
					if m.CacheHits != m.Distinct || m.Searches != 0 {
						t.Fatalf("trial %d %v pass %d: warm run searched: %+v", trial, sem, pass, m)
					}
				}
			}
		}
	}
}

// TestPipelineQuantumMergesNearDuplicates: a positive quantum collapses
// near-identical per-sample vectors into one canonical search. (Slates may then
// legitimately differ from the exact path, so only the batching behavior
// is asserted here; exactness under Quantum 0 is the oracle test above.)
func TestPipelineQuantumMergesNearDuplicates(t *testing.T) {
	tr := newOracleTrial(t, 77)
	samples := []sampling.Sample{
		{W: append([]float64(nil), tr.samples[0].W...), Q: 1},
		{W: append([]float64(nil), tr.samples[0].W...), Q: 1},
	}
	samples[1].W[0] += 1e-7 // inside a 1e-3 quantum bucket
	var m Metrics
	if _, err := Rank(tr.ix, samples, TKP, Options{K: 1, Search: exactOptions, Quantum: 1e-3, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.Distinct != 1 || m.Searches != 1 {
		t.Errorf("quantum 1e-3 did not merge near-duplicates: %+v", m)
	}
	m = Metrics{}
	if _, err := Rank(tr.ix, samples, TKP, Options{K: 1, Search: exactOptions, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.Distinct != 2 {
		t.Errorf("quantum 0 merged non-identical vectors: %+v", m)
	}
}

// meanVector is the pool's mean weight vector Σ q·w / Σ q.
func meanVector(samples []sampling.Sample) []float64 {
	mean := make([]float64, len(samples[0].W))
	var total float64
	for _, s := range samples {
		for j, w := range s.W {
			mean[j] += s.Q * w
		}
		total += s.Q
	}
	for j := range mean {
		mean[j] /= total
	}
	return mean
}

// TestEXPMatchesBruteForceMean: Definition 2 over a weighted pool is one
// search under the mean vector w̄ = Σ q·w / Σ q, because U(p, w) = w · v(p)
// is linear in w. On every oracle trial, cold and then from the cache, the
// EXP slate is the full enumeration's top-k under w̄ (two packages may
// trade places only on a floating-point tie), each score is w̄ · v(p) to
// within 1e-12, the quantum leaves w̄ alone, and the call probes one vector.
func TestEXPMatchesBruteForceMean(t *testing.T) {
	const trials, tol = 210, 1e-12
	for trial := 0; trial < trials; trial++ {
		tr := newOracleTrial(t, int64(1000+trial))
		u, err := feature.NewUtility(tr.sp.Profile, meanVector(tr.samples))
		if err != nil {
			t.Fatal(err)
		}
		want := pkgspace.BruteForceTopK(tr.sp, u, tr.k)
		cache := NewCache(16)
		for pass := 0; pass < 2; pass++ {
			var m Metrics
			got, err := Rank(tr.ix, tr.samples, EXP, Options{K: tr.k, Search: exactOptions, Quantum: 0.25, Cache: cache, Metrics: &m})
			if err != nil {
				t.Fatalf("trial %d pass %d: %v", trial, pass, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d pass %d: EXP slate has %d packages, enumeration %d", trial, pass, len(got), len(want))
			}
			for r := range got {
				score := u.Score(pkgspace.Vector(tr.sp, got[r].Pkg))
				if d := got[r].Score - score; d > tol || d < -tol {
					t.Fatalf("trial %d pass %d rank %d: %s scored %.17g, w̄ · v = %.17g", trial, pass, r, got[r].Pkg, got[r].Score, score)
				}
				if d := score - want[r].Utility; got[r].Pkg.Signature() != want[r].Pkg.Signature() && (d > tol || d < -tol) {
					t.Fatalf("trial %d pass %d rank %d: EXP %s=%.17g, enumeration %s=%.17g",
						trial, pass, r, got[r].Pkg, score, want[r].Pkg, want[r].Utility)
				}
			}
			if m.Samples != len(tr.samples) || m.Distinct != 1 || m.CacheHits != pass || m.Searches != 1-pass {
				t.Fatalf("trial %d pass %d: metrics %+v, want %d samples, 1 distinct, %d hits, %d searches",
					trial, pass, m, len(tr.samples), pass, 1-pass)
			}
		}
	}
}

// TestPredicateOptionsBypassCache: search options carrying predicate
// closures must never reuse cached results (the closure's identity is not
// part of any key).
func TestPredicateOptionsBypassCache(t *testing.T) {
	tr := newOracleTrial(t, 99)
	cache := NewCache(64)
	opts := Options{K: 1, Cache: cache, Search: exactOptions}
	opts.Search.Candidate = func(*feature.Space, pkgspace.Package) bool { return true }
	var m Metrics
	opts.Metrics = &m
	for pass := 0; pass < 2; pass++ {
		if _, err := Rank(tr.ix, tr.samples, EXP, opts); err != nil {
			t.Fatal(err)
		}
		if m.CacheHits != 0 {
			t.Fatalf("pass %d: predicate options hit the cache: %+v", pass, m)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("predicate results were cached: %d entries", cache.Len())
	}
}
