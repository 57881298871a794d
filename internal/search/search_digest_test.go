package search

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
)

// TestSearchDigest pins, bit for bit, what a search returns on the shapes
// the workloads serve: per row it hashes, over a fixed set of weight
// vectors, every returned package's ids and utility bits and every Result
// counter. TestBeamTraceGolden pins the beam on 2k spaces; this covers the
// shapes themselves:
//
//   - the serving beam (K 3, MaxQueue 128, MaxAccessed 500) on uniform 1k
//     under the mixed profile, vectors from the origin prior N(0, 0.5) and
//     means of 30 such draws (the vector an EXP recommend searches under);
//   - an uncapped ExpandAll run (exact, no beam) on 200 uniform items under
//     the mixed profile;
//   - the partitioned serving beam on uniform and correlated 100k under the
//     monotone profile, vectors from the large workloads' N(0.5, 0.15).
//
// A change that decides a round or a child by a cheaper test must leave
// every digest as it is. The constants were captured before the search's
// round verdict and its division-free screens landed.
func TestSearchDigest(t *testing.T) {
	mixed := []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum}
	mono := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum}
	beam := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	rows := []struct {
		name    string
		kind    string
		n       int
		aggs    []feature.Agg
		opts    Options
		mean    float64 // the prior's mean on every dimension
		sd      float64
		vectors int
		want    uint64
	}{
		{"serve uni 1k", "uni", 1000, mixed, beam, 0, 0.5, 400, 0xcaefecfc7dc9fc0e},
		{"expandall 200", "uni", 200, mixed, Options{K: 3, MaxQueue: -1, ExpandAll: true}, 0, 0.5, 60, 0x9be2d2f843c15f84},
		{"partitioned uni 100k", "uni", 100000, mono, beam, 0.5, 0.15, 300, 0x4dfc5097c8bba5cf},
		{"partitioned cor 100k", "cor", 100000, mono, beam, 0.5, 0.15, 300, 0x209792bfd5c93169},
	}
	for _, row := range rows {
		items, err := dataset.Generate(row.kind, row.n, len(row.aggs), rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(row.aggs...), 3)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(sp)
		prior := gaussmix.Gaussian(fill(len(row.aggs), row.mean), row.sd)
		rng := rand.New(rand.NewSource(13))
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		searches, partitioned := 0, 0
		search := func(w []float64) {
			u, err := feature.NewUtility(sp.Profile, w)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ix.TopK(u, row.opts)
			if err != nil {
				t.Fatal(err)
			}
			searches++
			if res.RefineClustersOpened > 0 {
				partitioned++
			}
			put(uint64(len(res.Packages)))
			for _, s := range res.Packages {
				put(uint64(len(s.Pkg.IDs)))
				for _, id := range s.Pkg.IDs {
					put(uint64(id))
				}
				put(math.Float64bits(s.Utility))
			}
			truncated := uint64(0)
			if res.Truncated {
				truncated = 1
			}
			for _, c := range []uint64{uint64(res.Accessed), uint64(res.Created), truncated,
				uint64(res.DomPruned), uint64(res.SketchSkipped), uint64(res.RefineClustersOpened)} {
				put(c)
			}
		}
		for v := 0; v < row.vectors; v++ {
			search(prior.Sample(rng))
			if row.mean == 0 && v%4 == 0 {
				search(poolMean(prior, rng, 30))
			}
		}
		if row.n >= 100000 && partitioned < searches/2 {
			t.Errorf("%s: only %d of %d searches engaged the partition", row.name, partitioned, searches)
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("%s: digest %#x, want %#x (%d searches)", row.name, got, row.want, searches)
		}
	}
}

// fill returns a vector of n copies of v.
func fill(n int, v float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = v
	}
	return w
}

// poolMean returns the mean of n draws from prior: the vector an EXP
// recommend searches under, taken over an unconstrained pool.
func poolMean(prior *gaussmix.Mixture, rng *rand.Rand, n int) []float64 {
	var mean []float64
	for range n {
		s := prior.Sample(rng)
		if mean == nil {
			mean = make([]float64, len(s))
		}
		for d, x := range s {
			mean[d] += x / float64(n)
		}
	}
	return mean
}
