package feature

import (
	"math"
	"math/rand"
	"testing"
)

// deltaProfile exercises every aggregation the normalizer treats
// distinctly: sum (top-maxSize state) and max/avg/min (single-extreme
// state), two of them sharing feature 0.
func deltaProfile(t *testing.T) *Profile {
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

// assertSpaceEqual checks the delta-built space against a from-scratch
// build: bitwise-equal scales, identical null flags, and the same geometry
// fingerprint.
func assertSpaceEqual(t *testing.T, got, want *Space) {
	t.Helper()
	if got.Hash() != want.Hash() {
		t.Fatalf("Hash: got %x, want %x", got.Hash(), want.Hash())
	}
	for d := 0; d < want.Dims(); d++ {
		g, w := got.Norm.Scale(d), want.Norm.Scale(d)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("scale[%d]: got %v (%x), want %v (%x)",
				d, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	for f := 0; f < want.Profile.FeatureCount(); f++ {
		if got.HasNull(f) != want.HasNull(f) {
			t.Fatalf("HasNull(%d): got %v, want %v", f, got.HasNull(f), want.HasNull(f))
		}
	}
	// Maintained normalizer state must match too, or the *next* delta
	// would diverge even though this epoch's scales agree.
	for d := range want.Norm.tops {
		if got.Norm.counts[d] != want.Norm.counts[d] {
			t.Fatalf("norm count[%d]: got %d, want %d", d, got.Norm.counts[d], want.Norm.counts[d])
		}
		gt, wt := got.Norm.tops[d], want.Norm.tops[d]
		if len(gt) != len(wt) {
			t.Fatalf("norm top[%d]: got %v, want %v", d, gt, wt)
		}
		for i := range wt {
			if math.Float64bits(gt[i]) != math.Float64bits(wt[i]) {
				t.Fatalf("norm top[%d][%d]: got %v, want %v", d, i, gt[i], wt[i])
			}
		}
	}
}

// applyDelta removes the rows at the given indices and appends the added
// rows, returning the new row set plus the removed rows.
func applyDelta(rows [][]float64, removeIdx []int, added [][]float64) (next, removed [][]float64) {
	drop := make(map[int]bool, len(removeIdx))
	for _, i := range removeIdx {
		drop[i] = true
	}
	for i, r := range rows {
		if drop[i] {
			removed = append(removed, r)
		} else {
			next = append(next, r)
		}
	}
	next = append(next, added...)
	return next, removed
}

// TestNewSpaceFromEquivalence drives randomized remove/add deltas through
// NewSpaceFrom and checks every derived space bit-identical to a full
// NewSpace over the same rows, including across chained deltas (state
// maintained by one delta feeds the next).
func TestNewSpaceFromEquivalence(t *testing.T) {
	p := deltaProfile(t)
	const maxSize = 3
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(20)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = randomRow(rng)
		}
		sp, err := NewSpace(itemsFromRows(rows), p, maxSize)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			var removeIdx []int
			for i := range rows {
				if len(rows)-len(removeIdx) > 1 && rng.Intn(6) == 0 {
					removeIdx = append(removeIdx, i)
				}
			}
			var added [][]float64
			for a := rng.Intn(4); a > 0; a-- {
				added = append(added, randomRow(rng))
			}
			next, removed := applyDelta(rows, removeIdx, added)
			if len(next) == 0 {
				continue
			}
			got, err := NewSpaceFrom(sp, itemsFromRows(next), removed, added)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			want, err := NewSpace(itemsFromRows(next), p, maxSize)
			if err != nil {
				t.Fatal(err)
			}
			assertSpaceEqual(t, got, want)
			rows, sp = next, got // chain: the delta-built space is the next parent
		}
	}
}

// TestNewSpaceFromDirectedCases pins the adversarial normalizer deltas:
// deleting the max, deleting at and below the sum cutoff, inserting past
// the cutoff, and draining a dimension to empty.
func TestNewSpaceFromDirectedCases(t *testing.T) {
	p := deltaProfile(t)
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
			sp, err := NewSpace(itemsFromRows(base), p, maxSize)
			if err != nil {
				t.Fatal(err)
			}
			next, removed := applyDelta(base, tc.removeIdx, tc.added)
			got, err := NewSpaceFrom(sp, itemsFromRows(next), removed, tc.added)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewSpace(itemsFromRows(next), p, maxSize)
			if err != nil {
				t.Fatal(err)
			}
			assertSpaceEqual(t, got, want)
		})
	}
}

// TestNewSpaceFromSharesUntouchedState asserts the copy-on-write contract:
// a delta touching only feature 1 shares the sum dimension's top slice
// with the parent rather than recomputing it.
func TestNewSpaceFromSharesUntouchedState(t *testing.T) {
	p := deltaProfile(t)
	base := [][]float64{{10, 7, 1}, {8, 5, 2}, {6, 3, 3}}
	sp, err := NewSpace(itemsFromRows(base), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	added := [][]float64{{Null, 9, Null}}
	next, removed := applyDelta(base, nil, added)
	got, err := NewSpaceFrom(sp, itemsFromRows(next), removed, added)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Norm.tops[0][0] != &sp.Norm.tops[0][0] {
		t.Fatal("sum dimension untouched by the delta, but its top slice was reallocated")
	}
	if got.Norm.Scale(1) == sp.Norm.Scale(1) {
		t.Fatalf("max dimension touched (new max 9 > 7), scale should change: %v", got.Norm.Scale(1))
	}
}

// TestNewSpaceFromRejectsBadRows covers the delta path's validation.
func TestNewSpaceFromRejectsBadRows(t *testing.T) {
	p := deltaProfile(t)
	base := [][]float64{{1, 2, 3}, {4, 5, 6}}
	sp, err := NewSpace(itemsFromRows(base), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{{1, -2, 3}}
	next, _ := applyDelta(base, nil, bad)
	if _, err := NewSpaceFrom(sp, itemsFromRows(next), nil, bad); err == nil {
		t.Fatal("negative added value accepted")
	}
	short := [][]float64{{1, 2}}
	if _, err := NewSpaceFrom(sp, itemsFromRows(base), nil, short); err == nil {
		t.Fatal("short delta row accepted")
	}
	if _, err := NewSpaceFrom(sp, nil, nil, nil); err == nil {
		t.Fatal("empty item set accepted")
	}
}
