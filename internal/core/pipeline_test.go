package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

func pipelineConfig(t *testing.T, sem ranking.Semantics, cacheSize int, seed int64) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	return Config{
		Items:           dataset.UNI(24, 2, rng),
		Profile:         feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize:  3,
		K:               3,
		RandomCount:     2,
		Semantics:       sem,
		SampleCount:     30,
		Seed:            seed,
		SearchCacheSize: cacheSize,
		Search:          search.Options{MaxQueue: 32, MaxAccessed: 100},
	}
}

func recommendedKey(s *Slate) string {
	out := ""
	for _, r := range s.Recommended {
		out += fmt.Sprintf("%s=%.17g;", r.Pkg.Signature(), r.Score)
	}
	return out
}

func slateKey(s *Slate) string {
	out := recommendedKey(s) + "|"
	for _, p := range s.Random {
		out += p.Signature() + ";"
	}
	return out
}

// TestRecommendCachedMatchesUncached drives a cached engine and an
// uncached engine through identical elicitation rounds: every slate must be
// bit-identical — the engine-level face of the ranking oracle property
// (Quantum 0 keeps the pipeline exact).
func TestRecommendCachedMatchesUncached(t *testing.T) {
	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		for seed := int64(1); seed <= 6; seed++ {
			plain, err := New(pipelineConfig(t, sem, -1, seed))
			if err != nil {
				t.Fatal(err)
			}
			cached, err := New(pipelineConfig(t, sem, 0, seed))
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				ps, err := plain.Recommend()
				if err != nil {
					t.Fatalf("%v seed %d round %d: plain: %v", sem, seed, round, err)
				}
				cs, err := cached.Recommend()
				if err != nil {
					t.Fatalf("%v seed %d round %d: cached: %v", sem, seed, round, err)
				}
				if slateKey(ps) != slateKey(cs) {
					t.Fatalf("%v seed %d round %d: slates differ:\nplain  %s\ncached %s",
						sem, seed, round, slateKey(ps), slateKey(cs))
				}
				pick := (round * 7) % len(ps.All)
				if err := plain.Click(ps.All[pick], ps.All); err != nil {
					t.Fatal(err)
				}
				if err := cached.Click(cs.All[pick], cs.All); err != nil {
					t.Fatal(err)
				}
			}
			st := cached.Stats()
			if st.RankSamples == 0 || st.RankDistinct == 0 {
				t.Errorf("%v seed %d: pipeline counters not populated: %+v", sem, seed, st)
			}
			if st.RankCacheHits == 0 {
				t.Errorf("%v seed %d: no cache hits across 4 rounds: %+v", sem, seed, st)
			}
			if st.RankSearches+st.RankCacheHits != st.RankDistinct {
				t.Errorf("%v seed %d: searches %d + hits %d != distinct %d",
					sem, seed, st.RankSearches, st.RankCacheHits, st.RankDistinct)
			}
			if ps := plain.Stats(); ps.RankCacheHits != 0 || ps.RankSearches != ps.RankDistinct {
				t.Errorf("%v seed %d: uncached engine hit a cache: %+v", sem, seed, ps)
			}
		}
	}
}

// TestSharedCacheInvalidateKeepsServing: invalidation mid-flight only
// costs re-searches, it never changes results.
func TestSharedCacheInvalidateKeepsServing(t *testing.T) {
	sh, err := NewShared(pipelineConfig(t, ranking.EXP, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(9)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	sh.SearchCache().Invalidate()
	s2, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	// Exploration randoms advance the engine's rng each round; only the
	// ranked half is cache-dependent and must be unchanged.
	if recommendedKey(s1) != recommendedKey(s2) {
		t.Error("invalidation changed an unchanged engine's ranked slate")
	}
	if hits := eng.Stats().RankCacheHits; hits != 0 {
		t.Errorf("post-invalidate round hit stale entries: %d", hits)
	}
	if st := sh.SearchCache().Stats(); st.InvalidationDrops == 0 {
		t.Errorf("Invalidate dropped nothing: %+v", st)
	}
}

// TestConcurrentRecommendSharedIndex runs many engines over one shared
// index and result cache from parallel goroutines (run with -race). It
// then replays each session in isolation with caching disabled: concurrent
// cross-session cache sharing must not change anyone's slates.
func TestConcurrentRecommendSharedIndex(t *testing.T) {
	const sessions = 8
	sh, err := NewShared(pipelineConfig(t, ranking.EXP, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]string, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := sh.NewEngine(int64(100 + i))
			if err != nil {
				errs <- err
				return
			}
			var slate *Slate
			for round := 0; round < 3; round++ {
				slate, err = eng.Recommend()
				if err != nil {
					errs <- fmt.Errorf("session %d round %d: %w", i, round, err)
					return
				}
				if round < 2 {
					if err := eng.Click(slate.All[(i+round)%len(slate.All)], slate.All); err != nil {
						errs <- err
						return
					}
				}
			}
			finals[i] = slateKey(slate)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Isolated replay: same seeds, no cache, sequential.
	cfg := pipelineConfig(t, ranking.EXP, -1, 1)
	for i := 0; i < sessions; i++ {
		shp, err := NewShared(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := shp.NewEngine(int64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		var slate *Slate
		for round := 0; round < 3; round++ {
			slate, err = eng.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			if round < 2 {
				if err := eng.Click(slate.All[(i+round)%len(slate.All)], slate.All); err != nil {
					t.Fatal(err)
				}
			}
		}
		if finals[i] != slateKey(slate) {
			t.Errorf("session %d: concurrent shared-cache slate differs from isolated replay:\nshared   %s\nisolated %s",
				i, finals[i], slateKey(slate))
		}
	}
}

// TestRestoredEngineReusesCache: restoring a snapshot replaces the pool
// but not the index, so the shared cache keeps serving the surviving
// vectors.
func TestRestoredEngineReusesCache(t *testing.T) {
	sh, err := NewShared(pipelineConfig(t, ranking.EXP, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recommend(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	fresh, err := sh.NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Recommend(); err != nil {
		t.Fatal(err)
	}
	st := fresh.Stats()
	if st.RankCacheHits == 0 {
		t.Errorf("restored engine re-searched everything: %+v", st)
	}
}

// TestEXPRecommendIsMeanTopK: an EXP slate is Definition 2 over the
// engine's pool. Through elicitation rounds under ψ 1 and ψ 0.9, with
// exact search options and a weight quantum (which EXP must not apply),
// every recommended list is the full enumeration's top-K under the pool's
// mean vector w̄ = Σ q·w / Σ q (two packages may trade places only on a
// floating-point tie), and each score is w̄ · v(p) to within 1e-12.
func TestEXPRecommendIsMeanTopK(t *testing.T) {
	const tol = 1e-12
	for _, psi := range []float64{1, 0.9} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := pipelineConfig(t, ranking.EXP, 0, seed)
			cfg.Psi = psi
			cfg.WeightQuantum = 0.05
			cfg.Search = search.Options{ExpandAll: true, MaxQueue: -1}
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				slate, err := eng.Recommend()
				if err != nil {
					t.Fatal(err)
				}
				samples, err := eng.Samples()
				if err != nil {
					t.Fatal(err)
				}
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
				u, err := feature.NewUtility(slate.Space.Profile, mean)
				if err != nil {
					t.Fatal(err)
				}
				want := pkgspace.BruteForceTopK(slate.Space, u, cfg.K)
				if len(slate.Recommended) != len(want) {
					t.Fatalf("ψ %v seed %d round %d: %d recommended, enumeration %d", psi, seed, round, len(slate.Recommended), len(want))
				}
				for r, got := range slate.Recommended {
					score := u.Score(pkgspace.Vector(slate.Space, got.Pkg))
					if d := got.Score - score; d > tol || d < -tol {
						t.Fatalf("ψ %v seed %d round %d rank %d: %s scored %.17g, w̄ · v = %.17g", psi, seed, round, r, got.Pkg, got.Score, score)
					}
					if d := score - want[r].Utility; got.Pkg.Signature() != want[r].Pkg.Signature() && (d > tol || d < -tol) {
						t.Fatalf("ψ %v seed %d round %d rank %d: EXP %s=%.17g, enumeration %s=%.17g",
							psi, seed, round, r, got.Pkg, score, want[r].Pkg, want[r].Utility)
					}
				}
				if err := eng.Click(slate.All[(round*7)%len(slate.All)], slate.All); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestEXPRecommendSearchesOnce: a fresh EXP recommend runs one search,
// ranking the whole pool as one distinct vector, and a refresh of the
// unchanged pool is a cache hit that searches nothing.
func TestEXPRecommendSearchesOnce(t *testing.T) {
	cfg := pipelineConfig(t, ranking.EXP, 0, 5)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Samples, distinct, cache hits and searches, summed over the recommends.
	want := [][4]int{{cfg.SampleCount, 1, 0, 1}, {2 * cfg.SampleCount, 2, 1, 1}}
	for i, w := range want {
		if _, err := eng.Recommend(); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if got := [4]int{st.RankSamples, st.RankDistinct, st.RankCacheHits, st.RankSearches}; got != w {
			t.Errorf("after recommend %d: rank counters %v, want %v", i+1, got, w)
		}
	}
}
