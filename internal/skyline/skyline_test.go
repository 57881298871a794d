package skyline

import (
	"math/rand"
	"slices"
	"testing"

	"toppkg/internal/feature"
)

func TestDominates(t *testing.T) {
	// a better on both.
	if !domOriented([]float64{0.9, -0.1}, []float64{0.5, -0.5}) {
		t.Error("clear domination missed")
	}
	// Equal: no strict improvement.
	if domOriented([]float64{0.5, -0.5}, []float64{0.5, -0.5}) {
		t.Error("equal rows dominate")
	}
	// Trade-off: incomparable.
	if domOriented([]float64{0.9, -0.9}, []float64{0.5, -0.5}) {
		t.Error("worse on the second axis still dominated")
	}
}

func TestItemsWithNulls(t *testing.T) {
	items := []feature.Item{
		{ID: 0, Values: []float64{0.9, feature.Null}},
		{ID: 1, Values: []float64{0.5, 0.5}},
		{ID: 2, Values: []float64{0.95, 0.9}},
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggMax, feature.AggMax), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Item 2 dominates both others (null treated as worst).
	if got := Heads(sp).Members(); !slices.Equal(got, []int32{2}) {
		t.Errorf("heads = %v, want just item 2", got)
	}
}

// TestHeadsMatchesBruteForce holds Heads to the O(n²) definition of a head
// set (bruteHeads: an item is a head iff no other item's oriented row is at
// least as good everywhere and better somewhere) on random spaces:
// small ones, and ones above feature.BuildGrain. The values sit on a
// coarse grid (ties, exact duplicates, and items tied with the pivot on
// some axes), a tenth are null — on min axes too, where a null is the
// worst value — and the profiles mix sum, max and min axes with avg ones
// the head set ignores. An all-equal space, where no item dominates
// another, closes the list.
func TestHeadsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg}
	space := func(n int, dims []feature.Agg, value func() float64) ([]feature.Item, *feature.Space) {
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, len(dims))
			for j := range vals {
				vals[j] = value()
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(dims...), 3)
		if err != nil {
			t.Fatal(err)
		}
		return items, sp
	}
	grid := func() float64 {
		if rng.Intn(10) == 0 {
			return feature.Null
		}
		return float64(rng.Intn(6)) / 2
	}
	for trial := 0; trial < 306; trial++ {
		n, m := 1+rng.Intn(80), 1+rng.Intn(4)
		if trial >= 300 {
			n, m = feature.BuildGrain+rng.Intn(1000), 2+rng.Intn(3)
		}
		dims := make([]feature.Agg, m)
		for d := range dims {
			dims[d] = aggs[rng.Intn(len(aggs))]
		}
		if trial >= 300 {
			dims[0] = feature.AggMin // a min axis, nulls on it
		}
		items, sp := space(n, dims, grid)
		if got, want := Heads(sp).Members(), bruteHeads(items, ProfileDirs(sp.Profile)); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, %v): Heads %v, brute force %v", trial, n, dims, got, want)
		}
	}
	_, sp := space(feature.BuildGrain+1, []feature.Agg{feature.AggSum, feature.AggMin, feature.AggMax}, func() float64 { return 0.5 })
	if got := Heads(sp).Len(); got != sp.N() {
		t.Fatalf("all-equal space: %d heads of %d items", got, sp.N())
	}
}
