package search

import (
	"fmt"
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
)

// indexSink keeps the benchmarked build from being optimized away.
var indexSink *Index

// BenchmarkNewIndex times one index build — every dimension list of the
// large workloads' monotone profile (sum/max over five features, φ 3) — on
// uniform and correlated catalogues of 1k and 100k items, and reports it per
// item.
//
//	go test -run '^$' -bench '^BenchmarkNewIndex$' ./internal/search
func BenchmarkNewIndex(b *testing.B) {
	mono := feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum)
	for _, kind := range []string{"uni", "cor"} {
		for _, n := range []int{1000, 100000} {
			b.Run(fmt.Sprintf("%s/%d", kind, n), func(b *testing.B) {
				items, err := dataset.Generate(kind, n, 5, rand.New(rand.NewSource(1)))
				if err != nil {
					b.Fatal(err)
				}
				sp, err := feature.NewSpace(items, mono, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					indexSink = NewIndex(sp)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/item")
			})
		}
	}
}
