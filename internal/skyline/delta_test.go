package skyline

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"toppkg/internal/feature"
)

// densify compacts a stable-ID→values shadow map into a space the way the
// catalogue does (dense order = ascending stable ID).
func densify(t testing.TB, shadow map[int][]float64, p *feature.Profile, maxSize int) (*feature.Space, []int) {
	t.Helper()
	stable := make([]int, 0, len(shadow))
	for id := range shadow {
		stable = append(stable, id)
	}
	slices.Sort(stable)
	items := make([]feature.Item, len(stable))
	for i, id := range stable {
		items[i] = feature.Item{ID: i, Values: shadow[id]}
	}
	sp, err := feature.NewSpace(items, p, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	return sp, stable
}

// deltaArgs derives the Apply inputs (remap, dirty, added) between two
// dense orderings of a shadow map, mirroring the catalogue's delta
// builder: a stable ID present in both with unchanged values is carried,
// anything else is dirty (old side) and/or added (new side).
func deltaArgs(oldStable, newStable []int, changed map[int]bool) (remap []int32, dirty, added []int32) {
	newDense := make(map[int]int32, len(newStable))
	for i, id := range newStable {
		newDense[id] = int32(i)
	}
	oldSet := make(map[int]bool, len(oldStable))
	remap = make([]int32, len(oldStable))
	for i, id := range oldStable {
		oldSet[id] = true
		nd, ok := newDense[id]
		if !ok || changed[id] {
			remap[i] = -1
			dirty = append(dirty, int32(i))
		} else {
			remap[i] = nd
		}
	}
	for i, id := range newStable {
		if !oldSet[id] || changed[id] {
			added = append(added, int32(i))
		}
	}
	return remap, dirty, added
}

func skylineValue(b byte) float64 {
	if b >= 250 {
		return feature.Null
	}
	return float64(b%16) / 4 // coarse grid: ties and exact duplicates
}

// FuzzSkylineDelta drives random mutation batches through Set.Apply and
// asserts the incrementally maintained head set equals a from-scratch
// recompute whenever Apply reports success — and that Apply only refuses
// when a head item was removed or replaced. Input: data[0] sizes the
// initial set; then 4-byte records [op, id, v0, v1] — op%3: 0 upsert,
// 1 delete, 2 upsert (second byte pair).
func FuzzSkylineDelta(f *testing.F) {
	f.Add([]byte("\x06\x00\x03\x04\x05"))                 // insert near the frontier
	f.Add([]byte("\x06\x01\x00\x00\x00\x00\x02\xff\x01")) // delete then null-heavy insert
	f.Add([]byte("\x04\x00\x0f\x0f\x0f\x01\x00\x00\x00")) // dominant insert, then delete it
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	const maxSize = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		n0 := 3 + int(data[0]%6)
		shadow := map[int][]float64{}
		for i := 0; i < n0; i++ {
			shadow[i] = []float64{float64((i * 3) % 7), float64((i*5 + 1) % 7)}
		}
		sp, stable := densify(t, shadow, p, maxSize)
		set := Heads(sp)
		for pos := 1; pos+4 <= len(data); pos += 4 {
			op, id := data[pos]%3, int(data[pos+1]%16)
			changed := map[int]bool{}
			switch op {
			case 1:
				if _, ok := shadow[id]; !ok || len(shadow) == 1 {
					continue
				}
				delete(shadow, id)
			default:
				vals := []float64{skylineValue(data[pos+2]), skylineValue(data[pos+3])}
				if old, ok := shadow[id]; ok {
					if slices.Equal(old, vals) {
						continue
					}
					changed[id] = true
				}
				shadow[id] = vals
			}
			nsp, nstable := densify(t, shadow, p, maxSize)
			remap, dirty, added := deltaArgs(stable, nstable, changed)
			want := Heads(nsp)
			got, ok := set.Apply(nsp, remap, dirty, added)
			if !ok {
				// Apply may only refuse when a head was removed/replaced.
				headDirty := false
				for _, pd := range dirty {
					if set.Contains(pd) {
						headDirty = true
						break
					}
				}
				if !headDirty {
					t.Fatalf("Apply refused without a dirty head (dirty=%v)", dirty)
				}
				got = want // recompute, as the catalogue would
			} else if !slices.Equal(got.Members(), want.Members()) {
				t.Fatalf("incremental heads %v != recomputed %v", got.Members(), want.Members())
			}
			// The maintained set must answer Contains like the recompute.
			for i := 0; i < nsp.N(); i++ {
				if got.Contains(int32(i)) != want.Contains(int32(i)) {
					t.Fatalf("Contains(%d) mismatch", i)
				}
			}
			sp, stable, set = nsp, nstable, got
			_ = rng
		}
	})
}

// TestSetHeadsMatchesItems cross-checks the columnar Heads computation
// against a brute-force pairwise-dominance skyline of the items under the
// canonical directions, nulls included (a null is the worst value).
func TestSetHeadsMatchesItems(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, 3)
			for j := range vals {
				if rng.Intn(8) == 0 {
					vals[j] = feature.Null
				} else {
					vals[j] = float64(rng.Intn(10)) / 3
				}
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		p := feature.SimpleProfile(feature.AggSum, feature.AggMin, feature.AggMax)
		sp, err := feature.NewSpace(items, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Heads(sp).Members(), bruteHeads(items, ProfileDirs(p)); !slices.Equal(got, want) {
			t.Fatalf("Heads %v != brute-force skyline %v", got, want)
		}
	}
}

// bruteHeads returns, in ascending order, the items no other item
// dominates: at least as good on every directed dimension and strictly
// better on one. Rows are oriented so larger is better, with nulls worst.
func bruteHeads(items []feature.Item, dirs []Direction) []int32 {
	rows := make([][]float64, len(items))
	for i, it := range items {
		for d, dir := range dirs {
			v := it.Values[d]
			switch {
			case dir == Ignore:
				continue
			case feature.IsNull(v) && dir == Larger:
				v = 0
			case feature.IsNull(v):
				v = math.Inf(-1)
			case dir == Smaller:
				v = -v
			}
			rows[i] = append(rows[i], v)
		}
	}
	dominates := func(a, b []float64) bool {
		strict := false
		for d := range a {
			if a[d] < b[d] {
				return false
			}
			strict = strict || a[d] > b[d]
		}
		return strict
	}
	var heads []int32
	for i := range rows {
		dominated := false
		for j := range rows {
			if dominates(rows[j], rows[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			heads = append(heads, int32(i))
		}
	}
	return heads
}
