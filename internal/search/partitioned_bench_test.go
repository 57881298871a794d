package search

import (
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
)

// BenchmarkTopK times one plain beam search on the serve_static shape: a
// uniform 1k-item catalogue under the mixed profile (sum/avg/max/min/sum
// over five features, φ 3 — avg and min keep it non-monotone, so neither
// dominance pruning nor the partition engages), K 3 and the serving beam
// (MaxQueue 128, MaxAccessed 500), over a fixed set of weight vectors from
// the origin-centred prior N(0, 0.5) the engine starts from: single draws
// (draw) and means of 30 draws (pool_mean), the vector an EXP recommend
// searches under with the engine's 30-sample pool.
//
//	go test -run '^$' -bench '^BenchmarkTopK$' ./internal/search
func BenchmarkTopK(b *testing.B) {
	mixed := feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum)
	items, err := dataset.Generate("uni", 1000, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sp, err := feature.NewSpace(items, mixed, 3)
	if err != nil {
		b.Fatal(err)
	}
	ix := NewIndex(sp)
	prior := gaussmix.Gaussian([]float64{0, 0, 0, 0, 0}, 0.5)
	for _, draws := range []int{1, 30} {
		name := "draw"
		if draws > 1 {
			name = "pool_mean"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			us := make([]*feature.Utility, 64)
			for i := range us {
				if us[i], err = feature.NewUtility(mixed, poolMean(prior, rng, draws)); err != nil {
					b.Fatal(err)
				}
			}
			opts := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(us[i%len(us)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionedTopK times one serving search over a 100k-item
// monotone catalogue (sum/max over five features, φ 3) with sketch-refine
// on: the serving beam (MaxQueue 128, MaxAccessed 500), K 3, and a fixed
// set of weight vectors drawn from the monotone prior N(0.5, 0.15) the
// large workloads use. clusters/op is the refine's RefineClustersOpened.
// The skyline and the partition are built before the timer starts.
//
//	go test -run '^$' -bench '^BenchmarkPartitionedTopK$' ./internal/search
func BenchmarkPartitionedTopK(b *testing.B) {
	mono := feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum)
	for _, kind := range []string{"cor", "uni"} {
		b.Run(kind, func(b *testing.B) {
			items, err := dataset.Generate(kind, 100000, 5, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			sp, err := feature.NewSpace(items, mono, 3)
			if err != nil {
				b.Fatal(err)
			}
			ix := NewIndex(sp)
			ix.Heads()
			ix.EnsurePartition(0)
			prior := gaussmix.Gaussian([]float64{0.5, 0.5, 0.5, 0.5, 0.5}, 0.15)
			rng := rand.New(rand.NewSource(2))
			us := make([]*feature.Utility, 64)
			for i := range us {
				if us[i], err = feature.NewUtility(mono, prior.Sample(rng)); err != nil {
					b.Fatal(err)
				}
			}
			opts := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
			opened := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ix.TopK(us[i%len(us)], opts)
				if err != nil {
					b.Fatal(err)
				}
				opened += res.RefineClustersOpened
			}
			b.ReportMetric(float64(opened)/float64(b.N), "clusters/op")
		})
	}
}
