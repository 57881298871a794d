package search

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
)

// TestBeamTraceGolden pins what a *beamed* search returns. The brute-force
// oracles only cover uncapped runs, where any sound kernel rewrite gives the
// same answer; under a Q+ cap and an access budget the result depends on
// every bound's exact bits and on the order children enter the queue, so a
// kernel edit that changes either shows up here and nowhere else. Each row
// digests, over 16 seeded weight vectors at the serving options, the
// returned packages (ids, utility bits) and the work counters; the rows
// cover the τ-only and (with nulls) the general pad path, dominance pruning
// and the beamed sketch-refine. The constants were captured at the commit
// before the fused grow-and-pad kernel landed; a deliberate change to the
// beam's trace must re-capture them and say so.
func TestBeamTraceGolden(t *testing.T) {
	mixed := []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum}
	mono := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum}
	rows := []struct {
		kind     string
		aggs     []feature.Agg
		monotone bool // positive weights: dominance pruning engages
		clusters int  // > 0 forces the sketch-refine path (beamed refine)
		nulls    bool // null out a tenth of the values: the general pad path
		want     uint64
	}{
		{"uni", mixed, false, 0, false, 0x79021491f387e8de},
		{"uni", mono, true, 0, false, 0x1522db316c6cd0e8},
		{"cor", mixed, false, 0, false, 0x15723b3ce58a7cd0},
		{"cor", mono, true, 0, false, 0xc09ef42b12404b1c},
		{"uni", mono, true, 45, false, 0xc8c24ae2b43dba7},
		{"cor", mono, true, 45, false, 0x6782f664ae47410e},
		{"uni", mixed, false, 0, true, 0xbe943a5d5cbeffec},
		{"uni", mono, true, 0, true, 0xc35488d2f499900f},
	}
	opts := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	for _, row := range rows {
		items, err := dataset.Generate(row.kind, 2000, 5, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if row.nulls {
			for i := 0; i < len(items); i += 2 {
				items[i].Values[(i/2)%5] = feature.Null
			}
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(row.aggs...), 3)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(sp)
		if row.clusters > 0 {
			ix.EnsurePartition(row.clusters)
		}
		h := fnv.New64a()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		flag := func(b bool) {
			if b {
				word(1)
			} else {
				word(0)
			}
		}
		rng := rand.New(rand.NewSource(7))
		for v := 0; v < 16; v++ {
			w := make([]float64, 5)
			for d := range w {
				if row.monotone {
					w[d] = 0.05 + 0.95*rng.Float64()
				} else {
					w[d] = rng.Float64()*2 - 1
				}
			}
			u, err := feature.NewUtility(sp.Profile, w)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ix.TopK(u, opts)
			if err != nil {
				t.Fatal(err)
			}
			word(uint64(len(res.Packages)))
			for _, sc := range res.Packages {
				word(uint64(len(sc.Pkg.IDs)))
				for _, id := range sc.Pkg.IDs {
					word(uint64(id))
				}
				word(math.Float64bits(sc.Utility))
			}
			word(uint64(res.Accessed))
			word(uint64(res.Created))
			flag(res.Truncated)
			word(uint64(res.DomPruned))
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("%s/%v clusters=%d nulls=%t: digest %#x, want %#x", row.kind, row.aggs, row.clusters, row.nulls, got, row.want)
		}
	}
}
