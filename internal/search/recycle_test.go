package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"toppkg/internal/feature"
)

// TestRecycledRunMemoryBitIdentical: a run's package shells, states, due
// queue and scratch outlive it in its index's pool (runMem), so a search
// starts from whatever the index's earlier searches left behind. None of it
// may leak into a result. An index warmed by other vectors — sketch-refine
// runs included, which warm the sketch sub-index's own pool — returns for 16
// fixed vectors exactly what a fresh index does, counters included; and four
// goroutines searching one index at once return the sequential results.
func TestRecycledRunMemoryBitIdentical(t *testing.T) {
	beam := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	for _, shape := range []struct {
		name     string
		aggs     []feature.Agg
		monotone bool
		nulls    bool
		clusters int // > 0: the partition is on (sketch-refine)
	}{
		{"serve_static", barrenMixed, false, false, 0},
		{"nulls", barrenMixed, false, true, 0},
		{"sketch-refine", barrenMono, true, false, 45},
	} {
		sp := barrenSpace(t, "uni", 2000, shape.aggs, shape.nulls)
		index := func() *Index {
			ix := NewIndex(sp)
			if shape.clusters > 0 {
				ix.EnsurePartition(shape.clusters)
			}
			return ix
		}
		rng := rand.New(rand.NewSource(5))
		vector := func() *feature.Utility {
			u, err := feature.NewUtility(sp.Profile, barrenWeights(rng, len(shape.aggs), shape.monotone))
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		search := func(ix *Index, u *feature.Utility) Result {
			res, err := ix.TopK(u, beam)
			if err != nil {
				t.Error(err)
			}
			return res
		}
		warm := index()
		for v := 0; v < 32; v++ {
			search(warm, vector())
		}
		var us []*feature.Utility
		var want []Result
		for v := 0; v < 16; v++ {
			u := vector()
			us = append(us, u)
			want = append(want, search(index(), u))
		}
		if shape.clusters > 0 && want[0].RefineClustersOpened == 0 {
			t.Fatalf("%s: the partition did not engage", shape.name)
		}
		for v, u := range us {
			label := fmt.Sprintf("%s/v%d", shape.name, v)
			if got := search(warm, u); !assertSameResult(t, got, want[v], label) || !reflect.DeepEqual(got, want[v]) {
				t.Errorf("%s: warmed index returned %+v, a fresh one %+v", label, got, want[v])
			}
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
				}
			}(g)
		}
		wg.Wait()
	}
}
