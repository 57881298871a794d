package search

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"toppkg/internal/feature"
)

// deltaTestProfile covers sum/max/avg plus an AggNull dimension (which
// must keep a nil list) over 3 raw features, so orphan handling (items
// null on every aggregated feature) is reachable.
func deltaTestProfile(t *testing.T) *feature.Profile {
	t.Helper()
	p, err := feature.NewProfile(3,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggMax},
		feature.Entry{Feature: 2, Agg: feature.AggAvg},
		feature.Entry{Feature: 1, Agg: feature.AggNull},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func deltaTestRow(rng *rand.Rand) []float64 {
	row := make([]float64, 3)
	for f := range row {
		switch rng.Intn(6) {
		case 0:
			row[f] = feature.Null
		case 1:
			row[f] = 4 // frequent duplicate to stress tie-breaks
		default:
			row[f] = math.Floor(rng.Float64()*100) / 10
		}
	}
	return row
}

// keyed is a stable-ID-keyed item set, the ordering the catalogue's dense
// compaction preserves; the test replays that compaction to build the
// remap/added inputs NewIndexFrom documents.
type keyed struct {
	stable []int
	rows   [][]float64
}

func (k keyed) space(t *testing.T, p *feature.Profile) *feature.Space {
	t.Helper()
	items := make([]feature.Item, len(k.rows))
	for i, r := range k.rows {
		items[i] = feature.Item{ID: i, Values: r}
	}
	sp, err := feature.NewSpace(items, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// mutate applies deletions, replacements and inserts by stable ID and
// returns the new set plus the remap/added translation.
func (k keyed) mutate(deleted map[int]bool, upserts map[int][]float64) (next keyed, remap, added []int32) {
	merged := make(map[int][]float64, len(k.stable)+len(upserts))
	for i, s := range k.stable {
		if !deleted[s] {
			merged[s] = k.rows[i]
		}
	}
	changed := make(map[int]bool)
	for s, row := range upserts {
		merged[s] = row
		changed[s] = true
	}
	var stables []int
	for s := range merged {
		stables = append(stables, s)
	}
	slices.Sort(stables)
	dense := make(map[int]int32, len(stables))
	for i, s := range stables {
		next.stable = append(next.stable, s)
		next.rows = append(next.rows, merged[s])
		dense[s] = int32(i)
	}
	remap = make([]int32, len(k.stable))
	for i, s := range k.stable {
		if deleted[s] || changed[s] {
			remap[i] = -1
		} else {
			remap[i] = dense[s]
		}
	}
	for s := range changed {
		added = append(added, dense[s])
	}
	slices.Sort(added)
	return next, remap, added
}

func assertIndexEqual(t *testing.T, got, want *Index) {
	t.Helper()
	for d := range want.asc {
		if !slices.Equal(got.asc[d], want.asc[d]) {
			t.Fatalf("asc[%d]:\n got %v\nwant %v", d, got.asc[d], want.asc[d])
		}
	}
	if !slices.Equal(got.orphans, want.orphans) {
		t.Fatalf("orphans: got %v, want %v", got.orphans, want.orphans)
	}
}

// TestNewIndexFromEquivalence checks randomized chained deltas — appends,
// mid-inserts, deletions (which renumber every dense ID after them) and
// replacements — against a from-scratch NewIndex over the same items.
// Every mixed step is followed by a reprice-only step (values of existing
// items change, nothing enters or leaves: an identity remap over nullable
// rows), the shape a serving catalogue's reprice batches take.
func TestNewIndexFromEquivalence(t *testing.T) {
	p := deltaTestProfile(t)
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cur := keyed{}
		n := 2 + rng.Intn(15)
		for i := 0; i < n; i++ {
			cur.stable = append(cur.stable, i*3) // gaps leave room for mid-inserts
			cur.rows = append(cur.rows, deltaTestRow(rng))
		}
		ix := NewIndex(cur.space(t, p))
		for step := 0; step < 8; step++ {
			deleted := map[int]bool{}
			upserts := map[int][]float64{}
			if step%2 == 1 { // reprice only
				for _, s := range cur.stable {
					if rng.Intn(3) == 0 {
						upserts[s] = deltaTestRow(rng)
					}
				}
				upserts[cur.stable[rng.Intn(len(cur.stable))]] = deltaTestRow(rng)
			} else {
				for _, s := range cur.stable {
					switch rng.Intn(8) {
					case 0:
						if len(cur.stable)-len(deleted) > 1 {
							deleted[s] = true
						}
					case 1:
						upserts[s] = deltaTestRow(rng) // replacement
					}
				}
				for a := rng.Intn(3); a > 0; a-- {
					upserts[rng.Intn(3*n+6)] = deltaTestRow(rng) // insert (mid or append)
				}
				for s := range upserts {
					delete(deleted, s)
				}
			}
			next, remap, added := cur.mutate(deleted, upserts)
			if len(next.rows) == 0 {
				continue
			}
			if step%2 == 1 {
				for i, v := range remap {
					if v >= 0 && v != int32(i) {
						t.Fatalf("trial %d step %d: reprice remap is not the identity: %v", trial, step, remap)
					}
				}
			}
			nsp := next.space(t, p)
			got := NewIndexFrom(ix, nsp, remap, added)
			want := NewIndex(nsp)
			assertIndexEqual(t, got, want)
			if got.Space() != nsp {
				t.Fatal("derived index not bound to the new space")
			}
			cur, ix = next, got // chain deltas
		}
	}
}

// TestNewIndexFromSharesUntouchedLists asserts the copy-on-write
// contract: under an identity remap, a dimension the batch does not touch
// shares the parent's array, while touched dimensions get fresh ones.
func TestNewIndexFromSharesUntouchedLists(t *testing.T) {
	p := deltaTestProfile(t)
	cur := keyed{
		stable: []int{0, 1, 2},
		rows:   [][]float64{{1, 5, 2}, {3, 4, 1}, {2, 6, 3}},
	}
	sp := cur.space(t, p)
	ix := NewIndex(sp)
	// Append a new item that is null on features 0 and 2: only the max
	// dimension (feature 1) is touched, and no dense ID shifts.
	next, remap, added := cur.mutate(nil, map[int][]float64{9: {feature.Null, 7, feature.Null}})
	nsp := next.space(t, p)
	got := NewIndexFrom(ix, nsp, remap, added)
	assertIndexEqual(t, got, NewIndex(nsp))
	if &got.asc[0][0] != &ix.asc[0][0] {
		t.Fatal("untouched sum list was reallocated instead of shared")
	}
	if &got.asc[2][0] != &ix.asc[2][0] {
		t.Fatal("untouched avg list was reallocated instead of shared")
	}
	if len(got.asc[1]) != 4 || &got.asc[1][0] == &ix.asc[1][0] {
		t.Fatal("touched max list should be a fresh merged array")
	}

	// A deletion renumbers dense IDs: nothing may be shared, and results
	// must still match a fresh build.
	next2, remap2, added2 := next.mutate(map[int]bool{0: true}, nil)
	nsp2 := next2.space(t, p)
	got2 := NewIndexFrom(got, nsp2, remap2, added2)
	assertIndexEqual(t, got2, NewIndex(nsp2))
}

// TestNewIndexFromTopKMatches runs full searches over delta-built and
// scratch-built indexes and requires identical packages and utilities —
// the contract the serving layer actually depends on.
func TestNewIndexFromTopKMatches(t *testing.T) {
	p := deltaTestProfile(t)
	rng := rand.New(rand.NewSource(99))
	cur := keyed{}
	for i := 0; i < 12; i++ {
		cur.stable = append(cur.stable, i*2)
		cur.rows = append(cur.rows, deltaTestRow(rng))
	}
	ix := NewIndex(cur.space(t, p))
	for step := 0; step < 6; step++ {
		upserts := map[int][]float64{rng.Intn(30): deltaTestRow(rng)}
		deleted := map[int]bool{}
		if step%2 == 1 {
			deleted[cur.stable[rng.Intn(len(cur.stable))]] = true
			for s := range upserts {
				delete(deleted, s)
			}
		}
		next, remap, added := cur.mutate(deleted, upserts)
		nsp := next.space(t, p)
		got := NewIndexFrom(ix, nsp, remap, added)
		want := NewIndex(nsp)
		for trial := 0; trial < 5; trial++ {
			w := make([]float64, nsp.Dims())
			for i := range w {
				w[i] = rng.Float64()*2 - 1
			}
			u, err := feature.NewUtility(nsp.Profile, w)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{K: 3}
			rg, err := got.TopK(u, opts)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := want.TopK(u, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rg.Packages) != len(rw.Packages) {
				t.Fatalf("step %d: %d vs %d packages", step, len(rg.Packages), len(rw.Packages))
			}
			for i := range rg.Packages {
				if !slices.Equal(rg.Packages[i].Pkg.IDs, rw.Packages[i].Pkg.IDs) ||
					rg.Packages[i].Utility != rw.Packages[i].Utility {
					t.Fatalf("step %d pkg %d: %v (%v) vs %v (%v)", step, i,
						rg.Packages[i].Pkg.IDs, rg.Packages[i].Utility,
						rw.Packages[i].Pkg.IDs, rw.Packages[i].Utility)
				}
			}
		}
		cur, ix = next, got
	}
}
