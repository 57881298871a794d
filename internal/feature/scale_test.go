package feature

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scaleProfile exercises every aggregation the scales treat distinctly:
// sum (the maxSize largest values) and max/avg/min (the single largest),
// two of them sharing feature 0.
func scaleProfile(t *testing.T) *Profile {
	t.Helper()
	p, err := NewProfile(3,
		Entry{Feature: 0, Agg: AggSum},
		Entry{Feature: 1, Agg: AggMax},
		Entry{Feature: 2, Agg: AggAvg},
		Entry{Feature: 0, Agg: AggMin},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomRow draws a raw value row with occasional nulls, duplicated
// values (to stress cutoff ties) and zeros.
func randomRow(rng *rand.Rand) []float64 {
	row := make([]float64, 3)
	for f := range row {
		switch rng.Intn(8) {
		case 0:
			row[f] = Null
		case 1:
			row[f] = 0
		case 2:
			row[f] = 5 // frequent duplicate value
		default:
			row[f] = math.Floor(rng.Float64()*100) / 10
		}
	}
	return row
}

func itemsFromRows(rows [][]float64) []Item {
	items := make([]Item, len(rows))
	for i, r := range rows {
		items[i] = Item{ID: i, Values: r}
	}
	return items
}

// assertScalesMatchSort builds the space over rows and checks every scale
// bitwise against a full descending sort of each feature's values — the
// maxSize largest summed for sum, the largest otherwise, 1 when that is 0
// or there is none — and the null flags against the rows.
func assertScalesMatchSort(t *testing.T, p *Profile, maxSize int, rows [][]float64) {
	t.Helper()
	sp, err := NewSpace(itemsFromRows(rows), p, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < p.Dims(); d++ {
		e := p.Entry(d)
		var vals []float64
		for _, r := range rows {
			if !IsNull(r[e.Feature]) {
				vals = append(vals, r[e.Feature])
			}
		}
		slices.SortFunc(vals, func(a, b float64) int { return cmp.Compare(b, a) })
		want := 0.0
		for i, v := range vals {
			if i == maxSize || (i == 1 && e.Agg != AggSum) {
				break
			}
			want += v
		}
		if want == 0 {
			want = 1
		}
		if got := sp.Scale(d); !sameBits(got, want) {
			t.Fatalf("rows %v: scale[%d] (%s): got %v (%#x), want %v (%#x)",
				rows, d, e.Agg, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for f := 0; f < p.FeatureCount(); f++ {
		want := slices.ContainsFunc(rows, func(r []float64) bool { return IsNull(r[f]) })
		if sp.HasNull(f) != want {
			t.Fatalf("rows %v: HasNull(%d) = %v, want %v", rows, f, sp.HasNull(f), want)
		}
	}
}

// TestScalesMatchSortReference holds the bounded-heap scale computation to
// the full sort over random row sets: nulls, zeros, duplicates at the
// top-maxSize cutoff, and sets smaller than maxSize.
func TestScalesMatchSortReference(t *testing.T) {
	p := scaleProfile(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 800; trial++ {
		rows := make([][]float64, 1+rng.Intn(20))
		for i := range rows {
			rows[i] = randomRow(rng)
		}
		assertScalesMatchSort(t, p, 1+rng.Intn(4), rows)
	}
}

// TestScalesDirectedCases pins the adversarial row sets of a catalogue
// edit: deleting the max, deleting at and below the sum cutoff, inserting
// past the cutoff, and draining a dimension to nulls or zeros.
func TestScalesDirectedCases(t *testing.T) {
	p := scaleProfile(t)
	const maxSize = 3
	base := [][]float64{
		{10, 7, 1},
		{8, 7, 2},
		{6, 3, Null},
		{4, 1, 3},
		{2, 0, 4},
	}
	cases := []struct {
		name      string
		removeIdx []int
		added     [][]float64
	}{
		{"delete_max", []int{0}, nil},                        // removes sum-top member and the max on f1 (tie stays)
		{"delete_at_cutoff", []int{2}, nil},                  // value 6 == top-3 cutoff on f0
		{"delete_below_cutoff", []int{4}, nil},               // 2 < cutoff: scale untouched
		{"insert_past_cutoff", nil, [][]float64{{9, 2, 2}}},  // 9 enters the top-3 sum set
		{"insert_below_cutoff", nil, [][]float64{{1, 2, 2}}}, // no scale change
		{"insert_new_max", nil, [][]float64{{1, 50, 2}}},     // new extreme on f1
		{"replace_all_nulls", []int{0, 1, 3}, [][]float64{{Null, Null, Null}, {Null, Null, Null}}},
		{"duplicate_of_cutoff", nil, [][]float64{{6, 7, 1}}}, // equals the cutoff value
		{"zero_everything", []int{0, 1, 2, 3}, [][]float64{{0, 0, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rows [][]float64
			for i, r := range base {
				if !slices.Contains(tc.removeIdx, i) {
					rows = append(rows, r)
				}
			}
			assertScalesMatchSort(t, p, maxSize, append(rows, tc.added...))
		})
	}
}
