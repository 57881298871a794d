package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/pkgspace"
)

// TestRecycledRunMemoryBitIdentical: a run and everything it uses but its
// result — cursors, plans, candidate heap, package shells, states, due queue,
// scratch — outlive it in its index's pool (runMem), so a search starts from
// whatever the index's earlier searches left behind. None of it may leak into
// a result. An index warmed by other vectors — sketch-refine runs included,
// which warm the sketch sub-index's own pool — returns for 16 fixed vectors
// exactly what a fresh index does, counters included; and four goroutines
// searching one index at once return the sequential results.
//
// The runs that leave newRun without searching are interleaved with the
// ordinary ones: every shape's vectors include the all-zero one (the
// degenerate path), and on the early-exits shape — sketch-refine over a space
// whose every representative is null on feature 0 — one weighting only that
// feature (the sketch has no list to draw, and the search falls back
// unpartitioned), and between searches a refine run under a mask that closes
// every cluster (no list: the run hands its memory back at once).
func TestRecycledRunMemoryBitIdentical(t *testing.T) {
	beam := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	for _, shape := range []struct {
		name     string
		aggs     []feature.Agg
		monotone bool
		nulls    bool
		clusters int  // > 0: the partition is on (sketch-refine)
		exits    bool // null every representative on feature 0
	}{
		{"serve_static", barrenMixed, false, false, 0, false},
		{"nulls", barrenMixed, false, true, 0, false},
		{"sketch-refine", barrenMono, true, false, 45, false},
		{"early-exits", barrenMono, true, false, 45, true},
	} {
		sp := barrenSpace(t, "uni", 2000, shape.aggs, shape.nulls)
		var part *partition.Partition
		if shape.exits {
			part = partition.Build(sp, shape.clusters)
			items := slices.Clone(sp.Items)
			for _, rep := range part.Reps {
				if rep >= 0 {
					items[rep].Values = slices.Clone(items[rep].Values)
					items[rep].Values[0] = feature.Null
				}
			}
			var err error
			if sp, err = feature.NewSpace(items, sp.Profile, sp.MaxSize); err != nil {
				t.Fatal(err)
			}
		}
		index := func() *Index {
			ix := NewIndex(sp)
			switch {
			case part != nil:
				// Built before the nulls: its bounds over-estimate, which
				// leaves them sound.
				ix.SetPartition(part)
			case shape.clusters > 0:
				ix.EnsurePartition(shape.clusters)
			}
			return ix
		}
		rng := rand.New(rand.NewSource(5))
		utility := func(w []float64) *feature.Utility {
			u, err := feature.NewUtility(sp.Profile, w)
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		vector := func() *feature.Utility {
			return utility(barrenWeights(rng, len(shape.aggs), shape.monotone))
		}
		search := func(ix *Index, u *feature.Utility) Result {
			res, err := ix.TopK(u, beam)
			if err != nil {
				t.Error(err)
			}
			return res
		}
		closedU := vector()
		closed := func(ix *Index) {
			if shape.exits {
				ps := ix.part.Load()
				mask := make([]bool, ps.p.K)
				if r, ok := ix.newRun(closedU, beam, &partCtx{p: ps.p, floorL: negInf, mask: mask}); ok {
					t.Error("a run under a mask closing every cluster found a list")
					r.returnMem()
				}
			}
		}
		warm := index()
		for v := 0; v < 32; v++ {
			search(warm, vector())
			closed(warm)
		}
		var us []*feature.Utility
		var want []Result
		for v := 0; v < 16; v++ {
			var u *feature.Utility
			switch {
			case v == 3:
				u = utility(make([]float64, len(shape.aggs)))
			case v == 9 && shape.exits:
				w := make([]float64, len(shape.aggs))
				w[0] = 1
				u = utility(w)
				ps := warm.part.Load()
				if r, ok := ps.sketch.newRun(u, beam, nil); ok {
					r.returnMem()
					t.Fatalf("%s: the sketch found a list on feature 0", shape.name)
				}
			default:
				u = vector()
			}
			us = append(us, u)
			want = append(want, search(index(), u))
		}
		if want[3].Created != beam.K || want[3].Accessed != 0 {
			t.Fatalf("%s: the all-zero vector did not take the degenerate path: %+v", shape.name, want[3])
		}
		if shape.clusters > 0 && want[0].RefineClustersOpened == 0 {
			t.Fatalf("%s: the partition did not engage", shape.name)
		}
		if shape.exits && (want[9].RefineClustersOpened != 0 || want[9].Accessed == 0) {
			t.Fatalf("%s: the all-null sketch did not fall back to a plain search: %+v", shape.name, want[9])
		}
		for v, u := range us {
			label := fmt.Sprintf("%s/v%d", shape.name, v)
			if got := search(warm, u); !assertSameResult(t, got, want[v], label) || !reflect.DeepEqual(got, want[v]) {
				t.Errorf("%s: warmed index returned %+v, a fresh one %+v", label, got, want[v])
			}
			closed(warm)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range 2 * len(us) {
					v := (g + i) % len(us)
					if got := search(warm, us[v]); !reflect.DeepEqual(got, want[v]) {
						t.Errorf("%s/v%d: goroutine %d returned %+v, sequentially %+v", shape.name, v, g, got, want[v])
					}
					closed(warm)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestResultsOutliveRecycledMemory: a result aliases nothing the index
// recycles. Its packages are copied out of the run's heap before the run's
// memory goes back to the pool, so results taken from an index keep their
// exact contents — ids, utilities, counters — while four goroutines run 200
// further searches over it, on plain, sketch-refine and predicate runs.
func TestResultsOutliveRecycledMemory(t *testing.T) {
	beam := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	pred := beam
	pred.Candidate = pkgspace.MinCount(1, func(it feature.Item) bool { return it.ID%2 == 1 })
	for _, shape := range []struct {
		name     string
		aggs     []feature.Agg
		monotone bool
		clusters int
		opts     Options
	}{
		{"plain", barrenMixed, false, 0, beam},
		{"sketch-refine", barrenMono, true, 45, beam},
		{"predicate", barrenMixed, false, 0, pred},
	} {
		sp := barrenSpace(t, "uni", 2000, shape.aggs, false)
		ix := NewIndex(sp)
		if shape.clusters > 0 {
			ix.EnsurePartition(shape.clusters)
		}
		rng := rand.New(rand.NewSource(9))
		us := make([]*feature.Utility, 8)
		for v := range us {
			u, err := feature.NewUtility(sp.Profile, barrenWeights(rng, len(shape.aggs), shape.monotone))
			if err != nil {
				t.Fatal(err)
			}
			us[v] = u
		}
		var held, copies []Result
		for _, u := range us {
			res, err := ix.TopK(u, shape.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Packages) != shape.opts.K {
				t.Fatalf("%s: %d packages, want %d", shape.name, len(res.Packages), shape.opts.K)
			}
			if shape.clusters > 0 && res.RefineClustersOpened == 0 {
				t.Fatalf("%s: the partition did not engage", shape.name)
			}
			cp := res
			cp.Packages = slices.Clone(res.Packages)
			for i := range cp.Packages {
				cp.Packages[i].Pkg.IDs = slices.Clone(cp.Packages[i].Pkg.IDs)
			}
			held, copies = append(held, res), append(copies, cp)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 50; i++ {
					u, err := feature.NewUtility(sp.Profile, barrenWeights(rng, len(shape.aggs), shape.monotone))
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := ix.TopK(u, shape.opts); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for v := range held {
			if !reflect.DeepEqual(held[v], copies[v]) {
				t.Errorf("%s/v%d: a held result changed under later searches: %+v, was %+v", shape.name, v, held[v], copies[v])
			}
		}
	}
}
