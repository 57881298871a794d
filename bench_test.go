// Benchmarks regenerating the cost core of every figure in the paper's
// evaluation (§5), plus ablations of this reproduction's design choices.
// Run with: go test -bench=. -benchmem
//
// They are the paper's figures, not the performance gate: serving
// performance is measured by bench/ (BENCHMARK.json, bash bench/run.sh).
//
// Mapping (cmd/experiments prints the same figures as tables):
//
//	Figure 4 → BenchmarkFig4Samplers            (sampler draw cost, 2-D)
//	Figure 5 → BenchmarkFig5ConstraintCheck     (full vs reduced constraints)
//	Figure 6 → BenchmarkFig6SampleGen, BenchmarkFig6TopKPkg
//	§5.4     → BenchmarkQualityRanking          (EXP/TKP/MPO aggregation)
//	Figure 7 → BenchmarkFig7Maintenance         (naive/TA/hybrid × violation mix)
//	Figure 8 → BenchmarkFig8ElicitationRound    (one recommend+click round)
//	ablations → BenchmarkAblation*
package toppkg_test

import (
	"math/rand"
	"testing"

	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/maintain"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
	"toppkg/internal/simulate"
	"toppkg/internal/topk"
)

func benchSpace(b *testing.B, kind string, n, m, phi int) *feature.Space {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	items, err := dataset.Generate(kind, n, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := feature.NewSpace(items, feature.CycledProfile(m), phi)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// benchConstraints builds `prefs` constraints consistent with a hidden
// weight vector over random packages.
func benchConstraints(b *testing.B, sp *feature.Space, prefs int, seed int64) []prefgraph.Constraint {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, sp.Dims())
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	g := prefgraph.New()
	added := 0
	for attempts := 0; added < prefs && attempts < prefs*30; attempts++ {
		p1 := randomPkg(sp, rng)
		p2 := randomPkg(sp, rng)
		v1, v2 := pkgspace.Vector(sp, p1), pkgspace.Vector(sp, p2)
		u1, u2 := feature.Dot(w, v1), feature.Dot(w, v2)
		if u1 == u2 {
			continue
		}
		if u1 < u2 {
			p1, p2, v1, v2 = p2, p1, v2, v1
		}
		if err := g.AddPreference(p1, p2); err == nil {
			added++
		}
	}
	return g.Constraints(true, func(p pkgspace.Package) []float64 { return pkgspace.Vector(sp, p) })
}

func randomPkg(sp *feature.Space, rng *rand.Rand) pkgspace.Package {
	return pkgspace.Random(rng, len(sp.Items), sp.MaxSize)
}

// --- Figure 4: sampler cost to produce 100 valid 2-D samples. ---

func BenchmarkFig4Samplers(b *testing.B) {
	sp := benchSpace(b, "uni", 1000, 2, 3)
	cs := benchConstraints(b, sp, 2, 4)
	v := sampling.NewValidator(2, cs)
	prior := gaussmix.DefaultPrior(2, 1, rand.New(rand.NewSource(2)))
	for _, s := range []sampling.Sampler{
		&sampling.Rejection{Prior: prior, V: v},
		&sampling.Importance{Prior: prior, V: v},
		&sampling.MCMC{Prior: prior, V: v},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(rng, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5: constraint checking, full vs transitively reduced. ---

func BenchmarkFig5ConstraintCheck(b *testing.B) {
	sp := benchSpace(b, "uni", 2000, 5, 3)
	rng := rand.New(rand.NewSource(5))
	w := make([]float64, 5)
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	g := prefgraph.New()
	for added := 0; added < 2000; {
		p1, p2 := randomPkg(sp, rng), randomPkg(sp, rng)
		v1, v2 := pkgspace.Vector(sp, p1), pkgspace.Vector(sp, p2)
		if feature.Dot(w, v1) == feature.Dot(w, v2) {
			continue
		}
		if feature.Dot(w, v1) < feature.Dot(w, v2) {
			p1, p2, v1, v2 = p2, p1, v2, v1
		}
		if err := g.AddPreference(p1, p2); err == nil {
			added++
		}
	}
	prior := gaussmix.DefaultPrior(5, 1, rng)
	draws := make([][]float64, 1000)
	for i := range draws {
		draws[i] = prior.Sample(rng)
	}
	for _, tc := range []struct {
		name    string
		reduced bool
	}{{"full", false}, {"reduced", true}} {
		cs := g.Constraints(tc.reduced, func(p pkgspace.Package) []float64 { return pkgspace.Vector(sp, p) })
		v := sampling.NewValidator(5, cs)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(cs)), "constraints")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range draws {
					v.Valid(d, nil)
				}
			}
		})
	}
}

// --- Figure 6: sample generation and Top-k-Pkg per dataset. ---

func BenchmarkFig6SampleGen(b *testing.B) {
	for _, kind := range []string{"uni", "pwr", "cor", "ant", "nba"} {
		sp := benchSpace(b, kind, 20000, 5, 5)
		cs := benchConstraints(b, sp, 20, 6)
		v := sampling.NewValidator(5, cs)
		prior := gaussmix.DefaultPrior(5, 1, rand.New(rand.NewSource(6)))
		for _, s := range []sampling.Sampler{
			&sampling.Rejection{Prior: prior, V: v},
			&sampling.Importance{Prior: prior, V: v},
			&sampling.MCMC{Prior: prior, V: v},
		} {
			b.Run(kind+"/"+s.Name(), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Sample(rng, 200); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig6TopKPkg(b *testing.B) {
	for _, kind := range []string{"uni", "pwr", "cor", "ant", "nba"} {
		sp := benchSpace(b, kind, 20000, 5, 5)
		ix := search.NewIndex(sp)
		rng := rand.New(rand.NewSource(8))
		w := make([]float64, 5)
		for i := range w {
			w[i] = rng.Float64()*2 - 1
		}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(u, search.Options{K: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §5.4: ranking-semantics aggregation over a fixed sample pool. ---

func BenchmarkQualityRanking(b *testing.B) {
	sp := benchSpace(b, "nba", 0, 4, 5)
	ix := search.NewIndex(sp)
	rng := rand.New(rand.NewSource(9))
	prior := gaussmix.DefaultPrior(4, 2, rng)
	samples := make([]sampling.Sample, 200)
	for i := range samples {
		samples[i] = sampling.Sample{W: prior.Sample(rng), Q: 1}
	}
	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		b.Run(sem.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ranking.Rank(ix, samples, sem, ranking.Options{K: 5,
					Search: search.Options{MaxQueue: 64, MaxAccessed: 300}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: maintenance strategies at few vs many violations. ---

func BenchmarkFig7Maintenance(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const n, d = 10000, 5
	wStar := make([]float64, d)
	for i := range wStar {
		wStar[i] = rng.Float64()*2 - 1
	}
	posterior := gaussmix.Gaussian(wStar, 0.3)
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = posterior.Sample(rng)
	}
	pool := topk.NewPool(vecs)

	sp := benchSpace(b, "uni", 2000, d, 3)
	// A consistent (few violators) and a reversed (many violators) query:
	// the reversed orientation of a clear preference invalidates most of
	// the wStar-concentrated pool.
	var fewQ, manyQ []float64
	for guard := 0; (fewQ == nil || manyQ == nil) && guard < 100000; guard++ {
		p1, p2 := randomPkg(sp, rng), randomPkg(sp, rng)
		v1, v2 := pkgspace.Vector(sp, p1), pkgspace.Vector(sp, p2)
		u1, u2 := feature.Dot(wStar, v1), feature.Dot(wStar, v2)
		if u1 == u2 {
			continue
		}
		if u1 < u2 {
			v1, v2 = v2, v1
		}
		countViol := func(q []float64) int {
			viol := 0
			for i := 0; i < n; i++ {
				if pool.Dot(i, q) > 0 {
					viol++
				}
			}
			return viol
		}
		consistent := maintain.Query(prefgraph.Constraint{Diff: diffVec(v1, v2)})
		if fewQ == nil && countViol(consistent) < n/100 {
			fewQ = consistent
		}
		reversed := maintain.Query(prefgraph.Constraint{Diff: diffVec(v2, v1)})
		if manyQ == nil && countViol(reversed) > n/3 {
			manyQ = reversed
		}
	}
	if fewQ == nil || manyQ == nil {
		b.Fatal("could not construct benchmark queries")
	}
	for _, tc := range []struct {
		name string
		q    []float64
	}{{"few_violators", fewQ}, {"many_violators", manyQ}} {
		for _, c := range []maintain.Checker{
			&maintain.Naive{P: pool},
			&maintain.TA{P: pool},
			&maintain.Hybrid{P: pool, Gamma: 0.025},
		} {
			b.Run(tc.name+"/"+c.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.Violators(tc.q)
				}
			})
		}
	}
}

func diffVec(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// --- Figure 8: one full recommend+click elicitation round on NBA. ---

// fig8Engine builds the Figure-8 serving engine; cacheSize -1 runs it
// without the shared result cache, 0 with the default one.
func fig8Engine(b *testing.B, rng *rand.Rand, cacheSize int) *core.Engine {
	b.Helper()
	items := dataset.NBASelect(dataset.NBA(rng), 5)
	eng, err := core.New(core.Config{
		Items:           items,
		Profile:         feature.CycledProfile(5),
		MaxPackageSize:  5,
		K:               5,
		RandomCount:     5,
		SampleCount:     200,
		Seed:            12,
		Search:          search.Options{MaxQueue: 64, MaxAccessed: 300},
		SearchCacheSize: cacheSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// reportPipelineMetrics attaches the batching counters per op: cache hits,
// searches and the dedup ratio — the quantities bench/ reports per run as
// ranking.cache_hit_share, ranking.searches_per_recommend and
// ranking.dedup_share. Under EXP (Figure 8's semantics) a recommend runs
// one search under the pool's mean vector, so "dedup" reads
// 1 − 1/SampleCount whatever the samples are: it shows that collapse, not
// repeated weight vectors. base is the counter snapshot taken before the
// timed loop, so untimed warm-up rounds do not skew the per-op numbers.
func reportPipelineMetrics(b *testing.B, eng *core.Engine, base core.Stats) {
	st := eng.Stats()
	samples := st.RankSamples - base.RankSamples
	if samples == 0 {
		return
	}
	b.ReportMetric(float64(st.RankCacheHits-base.RankCacheHits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(st.RankSearches-base.RankSearches)/float64(b.N), "searches/op")
	distinct := st.RankDistinct - base.RankDistinct
	b.ReportMetric(float64(samples-distinct)/float64(samples), "dedup")
}

var fig8Variants = []struct {
	name      string
	cacheSize int
}{
	{"nocache", -1}, // one search per round, under the pool's mean vector
	{"cached", 0},   // the same search, first probing the shared result cache
}

func BenchmarkFig8ElicitationRound(b *testing.B) {
	for _, tc := range fig8Variants {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			eng := fig8Engine(b, rng, tc.cacheSize)
			user := simulate.NewRandomUser(eng.Space().Profile, rng)
			base := eng.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slate, err := eng.Recommend()
				if err != nil {
					b.Fatal(err)
				}
				pick := user.Choose(eng.Space(), slate.All, rng)
				if err := eng.Click(slate.All[pick], slate.All); err != nil {
					b.Fatal(err)
				}
			}
			reportPipelineMetrics(b, eng, base)
		})
	}
}

// --- Ablation: the paper's line-3 pruning vs exact ExpandAll. ---

func BenchmarkAblationExpandAll(b *testing.B) {
	sp := benchSpace(b, "uni", 20000, 5, 5)
	ix := search.NewIndex(sp)
	u, err := feature.NewUtility(sp.Profile, []float64{0.6, -0.4, 0.5, -0.2, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts search.Options
	}{
		{"paper_pruning", search.Options{K: 5}},
		{"expand_all", search.Options{K: 5, ExpandAll: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(u, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Posterior update by sample maintenance (§3.1): one new constraint
// replaces only the samples it rules out. ---

func BenchmarkAblationPosteriorUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	const n, d = 2000, 4
	prior := gaussmix.DefaultPrior(d, 2, rng)
	samples := make([]sampling.Sample, n)
	for i := range samples {
		samples[i] = sampling.Sample{W: prior.Sample(rng), Q: 1}
	}
	sp := benchSpace(b, "uni", 1000, d, 3)
	cs := benchConstraints(b, sp, 1, 16)
	c := cs[0]

	b.Run("maintenance", func(b *testing.B) {
		v := sampling.NewValidator(d, cs)
		s := &sampling.Rejection{Prior: prior, V: v}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pool := maintain.NewPool(append([]sampling.Sample(nil), samples...))
			rng := rand.New(rand.NewSource(17))
			b.StartTimer()
			if _, _, err := pool.Apply(c, func(n int) (sampling.Result, error) { return s.Sample(rng, n) }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
