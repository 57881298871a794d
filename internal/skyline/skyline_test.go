package skyline

import (
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
