package core

import (
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

// sessionRounds is how many feedback rounds one benchmarked session runs
// before a fresh session replaces it, so a round's figure covers the same
// stretch of a session at any b.N.
const sessionRounds = 10

// BenchmarkSession times one session's interactions on two serving shapes,
// with the settings the benchmark's serving stacks run (bench/spec.go): K 3,
// φ 3, 30 samples, ψ 0.9 and the serving beam (MaxQueue 128, MaxAccessed
// 500), EXP ranking. cmd/serve ships the same but for ψ, whose -psi flag
// defaults to 1 (hard constraints).
//   - serve_static: uniform 1k items, the mixed profile
//     (sum/avg/max/min/sum over five features), the origin-centred prior
//     and weight quantum 0.05;
//   - large_cor: correlated 100k items, the monotone profile
//     (sum/max/sum/max/sum), prior N(0.5, 0.15), exact weights, the head
//     set and partition built before the timer starts.
//
// login is a new engine's first Recommend; login_tkp is the same under
// TKP, whose per-sample searches run one after another on the caller
// through dedup and the (emptied) cache. A round answers the last slate
// with a Click, reads Stats (as the server's click handler does) and
// fetches the next slate. The clicker picks the slate's best package under
// a hidden utility drawn from the prior (consistent), a random shown
// package one round in ten (noise10), or every round (random). Each
// session starts on an emptied result cache, untimed, so results cached by
// an earlier session do not speed up a later one.
//
//	go test -run '^$' -bench '^BenchmarkSession$' ./internal/core
func BenchmarkSession(b *testing.B) {
	mixed := feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum)
	mono := feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum)
	shapes := []struct {
		name    string
		kind    string
		items   int
		profile *feature.Profile
		mean    float64
		std     float64
		quantum float64
		mono    bool
	}{
		{name: "serve_static", kind: "uni", items: 1000, profile: mixed, std: 0.5, quantum: 0.05},
		{name: "large_cor", kind: "cor", items: 100000, profile: mono, mean: 0.5, std: 0.15, mono: true},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			items, err := dataset.Generate(shape.kind, shape.items, 5, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			prior := gaussmix.Gaussian([]float64{shape.mean, shape.mean, shape.mean, shape.mean, shape.mean}, shape.std)
			cfg := Config{
				Items:          items,
				Profile:        shape.profile,
				MaxPackageSize: 3,
				K:              3,
				Semantics:      ranking.EXP,
				SampleCount:    30,
				Psi:            0.9,
				WeightQuantum:  shape.quantum,
				Search:         search.Options{MaxQueue: 128, MaxAccessed: 500},
			}
			if shape.mono {
				cfg.Prior = prior
			}
			sh, err := NewShared(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if shape.mono {
				sh.Index().Heads()
				sh.Index().EnsurePartition(0)
			}
			// login starts session s under sem: its engine, first slate,
			// hidden utility and clicker stream.
			login := func(b *testing.B, s int, sem ranking.Semantics) (*Engine, *Slate, []float64, *rand.Rand) {
				eng, err := sh.NewEngine(int64(s + 1))
				if err != nil {
					b.Fatal(err)
				}
				eng.cfg.Semantics = sem
				slate, err := eng.Recommend()
				if err != nil {
					b.Fatal(err)
				}
				clicker := rand.New(rand.NewSource(int64(s + 1)))
				return eng, slate, prior.Sample(clicker), clicker
			}
			for _, l := range []struct {
				name string
				sem  ranking.Semantics
			}{{"login", ranking.EXP}, {"login_tkp", ranking.TKP}} {
				b.Run(l.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						sh.SearchCache().Invalidate()
						b.StartTimer()
						login(b, i, l.sem)
					}
				})
			}
			for _, round := range []struct {
				name  string
				noise int // a random click every noise rounds (1: always; 0: never)
			}{{"consistent", 0}, {"noise10", 10}, {"random", 1}} {
				b.Run(round.name, func(b *testing.B) {
					var (
						eng     *Engine
						slate   *Slate
						hidden  []float64
						clicker *rand.Rand
					)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if i%sessionRounds == 0 {
							b.StopTimer()
							sh.SearchCache().Invalidate()
							eng, slate, hidden, clicker = login(b, i/sessionRounds, ranking.EXP)
							b.StartTimer()
						}
						chosen := slate.All[0]
						if round.noise > 0 && clicker.Intn(round.noise) == 0 {
							chosen = slate.All[clicker.Intn(len(slate.All))]
						} else {
							for _, p := range slate.All[1:] {
								if feature.Dot(hidden, pkgspace.Vector(slate.Space, p)) > feature.Dot(hidden, pkgspace.Vector(slate.Space, chosen)) {
									chosen = p
								}
							}
						}
						if err := eng.Click(chosen, slate.All); err != nil {
							b.Fatal(err)
						}
						_ = eng.Stats()
						if slate, err = eng.Recommend(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
