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
// set on small random spaces: an item is a head iff no other item's oriented
// row is at least as good everywhere and better somewhere. The values sit on
// a coarse grid (ties and exact duplicates), a tenth are null, and the
// profiles mix sum, max and min axes with avg ones the head set ignores.
func TestHeadsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg}
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(80), 1+rng.Intn(4)
		dims := make([]feature.Agg, m)
		for d := range dims {
			dims[d] = aggs[rng.Intn(len(aggs))]
		}
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, m)
			for j := range vals {
				if rng.Intn(10) == 0 {
					vals[j] = feature.Null
				} else {
					vals[j] = float64(rng.Intn(6)) / 2
				}
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		p := feature.SimpleProfile(dims...)
		sp, err := feature.NewSpace(items, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		axes := profileAxes(p)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = orientedRow(sp, axes, int32(i), make([]float64, len(axes)))
		}
		var want []int32
		for i := range rows {
			dominated := false
			for j := range rows {
				better := false
				worse := false
				for a := range axes {
					better = better || rows[j][a] > rows[i][a]
					worse = worse || rows[j][a] < rows[i][a]
				}
				dominated = dominated || better && !worse
			}
			if !dominated {
				want = append(want, int32(i))
			}
		}
		if got := Heads(sp).Members(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%v): Heads %v, brute force %v", trial, dims, got, want)
		}
	}
}
