package partition

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"toppkg/internal/feature"
)

func testValue(rng *rand.Rand, nullable bool) float64 {
	if nullable && rng.Intn(8) == 0 {
		return feature.Null
	}
	return float64(rng.Intn(20)) / 4 // coarse grid: ties and duplicates
}

func buildSpace(t testing.TB, n, m int, seed int64, nullable bool) *feature.Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg}
	dims := make([]feature.Agg, m)
	for d := range dims {
		dims[d] = aggs[d%len(aggs)]
	}
	items := make([]feature.Item, n)
	for i := range items {
		vals := make([]float64, m)
		for j := range vals {
			vals[j] = testValue(rng, nullable)
		}
		items[i] = feature.Item{ID: i, Values: vals}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(dims...), 3)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// assertDerived checks the partition against the canonical derivation:
// members, bounds, null attainability and representatives must all be the
// pure function of (Assign, space) that derive computes.
func assertDerived(t *testing.T, sp *feature.Space, p *Partition) {
	t.Helper()
	want := &Partition{K: p.K, Assign: slices.Clone(p.Assign), Gen: p.Gen}
	want.derive(sp, nil)
	for c := 0; c < p.K; c++ {
		if !slices.Equal(p.Members[c], want.Members[c]) {
			t.Fatalf("cluster %d members %v != derived %v", c, p.Members[c], want.Members[c])
		}
		if p.Reps[c] != want.Reps[c] {
			t.Fatalf("cluster %d rep %d != derived %d", c, p.Reps[c], want.Reps[c])
		}
		if !slices.Equal(p.Mins[c], want.Mins[c]) || !slices.Equal(p.Maxs[c], want.Maxs[c]) {
			t.Fatalf("cluster %d bounds differ from derived", c)
		}
		if !slices.Equal(p.AnyNull[c], want.AnyNull[c]) {
			t.Fatalf("cluster %d AnyNull differs from derived", c)
		}
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		m := 1 + rng.Intn(4)
		k := 1 + rng.Intn(12)
		sp := buildSpace(t, n, m, int64(trial), trial%2 == 0)
		p := Build(sp, k)
		if p.K < 1 || p.K > k || p.K > n {
			t.Fatalf("K=%d out of range (k=%d n=%d)", p.K, k, n)
		}
		if len(p.Assign) != n {
			t.Fatalf("Assign len %d != n %d", len(p.Assign), n)
		}
		total := 0
		for c := 0; c < p.K; c++ {
			if len(p.Members[c]) == 0 {
				t.Fatalf("Build produced empty cluster %d", c)
			}
			total += len(p.Members[c])
			rep := p.Reps[c]
			if _, ok := slices.BinarySearch(p.Members[c], rep); !ok {
				t.Fatalf("rep %d not a member of cluster %d", rep, c)
			}
		}
		if total != n {
			t.Fatalf("members cover %d of %d items", total, n)
		}
		if im := p.Imbalance(); im < 1-1e-9 {
			t.Fatalf("imbalance %v < 1", im)
		}
		assertDerived(t, sp, p)
	}
}

// TestBuildDeterministic: equal inputs build equal partitions. Above
// feature.BuildGrain items Build splits subtrees and the derivation across
// goroutines; on a coarse grid full of ties, with nulls, four workers must
// build the partition one builds, leaf numbering, bounds and
// representatives included.
func TestBuildDeterministic(t *testing.T) {
	sp := buildSpace(t, 200, 3, 9, true)
	a, b := Build(sp, 14), Build(sp, 14)
	if !slices.Equal(a.Assign, b.Assign) || !slices.Equal(a.Reps, b.Reps) {
		t.Fatal("Build is not deterministic on equal inputs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sp = buildSpace(t, 3*feature.BuildGrain, 4, 9, true)
	for _, k := range []int{0, 45} {
		runtime.GOMAXPROCS(1)
		one := Build(sp, k)
		runtime.GOMAXPROCS(4)
		four := Build(sp, k)
		if one.K != four.K || !slices.Equal(one.Assign, four.Assign) || !slices.Equal(one.Reps, four.Reps) {
			t.Fatalf("k=%d: four workers built K=%d, one worker K=%d, or other clusters", k, four.K, one.K)
		}
		for c := 0; c < one.K; c++ {
			if !slices.Equal(one.Mins[c], four.Mins[c]) || !slices.Equal(one.Maxs[c], four.Maxs[c]) ||
				!slices.Equal(one.AnyNull[c], four.AnyNull[c]) {
				t.Fatalf("k=%d cluster %d: bounds differ between one and four workers", k, c)
			}
		}
		assertDerived(t, sp, four)
	}
}

// TestSelectCutMatchesSort holds Build's radix select to a comparison sort:
// on random blocks of a node table — coarse grids full of ties, both zeros,
// one repeated value, and spread values — every cut leaves exactly the
// positions a (coordinate, id) sort puts below it on the cut's side, and
// moves each row with its id.
func TestSelectCutMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []func() float64{
		func() float64 { return float64(rng.Intn(5)) / 4 },
		func() float64 { return []float64{0, math.Copysign(0, -1), -0.5, 0.5}[rng.Intn(4)] },
		func() float64 { return -1.25 },
		func() float64 { return rng.NormFloat64() },
	}
	for trial := 0; trial < 400; trial++ {
		n, d := 1+rng.Intn(300), 1+rng.Intn(4)
		value := values[trial%len(values)]
		nr := &nodeRows{ids: make([]int32, n), rows: make([]float64, n*d), d: d, keys: make([]uint64, n)}
		for i := range nr.ids {
			nr.ids[i] = int32(rng.Intn(1000))
			for a := 0; a < d; a++ {
				nr.rows[i*d+a] = value()
			}
		}
		rowOf := map[int32][]float64{}
		for i, id := range nr.ids {
			if _, dup := rowOf[id]; dup {
				nr.ids[i] = int32(1000 + i) // ids are unique, as dense ids are
				id = nr.ids[i]
			}
			rowOf[id] = slices.Clone(nr.rows[i*d : i*d+d])
		}
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		axis, cut := rng.Intn(d), lo+rng.Intn(hi-lo+1)
		want := slices.Clone(nr.ids[lo:hi])
		slices.SortFunc(want, func(a, b int32) int {
			if va, vb := rowOf[a][axis], rowOf[b][axis]; va != vb {
				return cmp.Compare(va, vb)
			}
			return cmp.Compare(a, b)
		})
		nr.selectCut(lo, hi, axis, cut)
		left, wantLeft := slices.Clone(nr.ids[lo:cut]), want[:cut-lo]
		slices.Sort(left)
		slices.Sort(wantLeft)
		if !slices.Equal(left, wantLeft) {
			t.Fatalf("trial %d: left side %v, want %v", trial, left, wantLeft)
		}
		for i, id := range nr.ids {
			if !slices.Equal(nr.rows[i*d:i*d+d], rowOf[id]) {
				t.Fatalf("trial %d: row of id %d moved without it", trial, id)
			}
		}
	}
}

func TestDefaultClusters(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {100, 10}, {101, 11}, {1000000, 1000},
	} {
		if got := DefaultClusters(tc.n); got != tc.want {
			t.Errorf("DefaultClusters(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

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
// dense orderings of a shadow map, mirroring the catalogue's delta builder.
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

func fuzzValue(b byte) float64 {
	if b >= 250 {
		return feature.Null
	}
	return float64(b%16) / 4
}

// FuzzPartitionDelta drives random mutation batches through Apply and
// asserts the incrementally maintained partition stays the canonical
// derivation of its own assignment (the invariant the search layer's
// soundness rests on: bounds and representatives never go stale — in
// touched and untouched clusters alike). Input: data[0] sizes the initial
// catalogue; then 4-byte records [op, id, v0, v1] — op%3: 1 delete, else
// upsert.
func FuzzPartitionDelta(f *testing.F) {
	f.Add([]byte("\x06\x00\x03\x04\x05"))
	f.Add([]byte("\x06\x01\x00\x00\x00\x00\x02\xff\x01"))
	f.Add([]byte("\x04\x00\x0f\x0f\x0f\x01\x00\x00\x00"))
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	const maxSize = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		n0 := 3 + int(data[0]%6)
		shadow := map[int][]float64{}
		for i := 0; i < n0; i++ {
			shadow[i] = []float64{float64((i * 3) % 7), float64((i*5 + 1) % 7)}
		}
		sp, stable := densify(t, shadow, p, maxSize)
		part := Build(sp, 3)
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
				vals := []float64{fuzzValue(data[pos+2]), fuzzValue(data[pos+3])}
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
			np, ok := part.Apply(nsp, remap, dirty, added)
			if !ok {
				// Apply may only refuse when no representative survives to
				// anchor added items.
				anchored := false
				for _, rep := range part.Reps {
					if rep < 0 {
						continue
					}
					if _, isDirty := slices.BinarySearch(dirty, rep); isDirty || remap[rep] < 0 {
						continue
					}
					anchored = true
				}
				if anchored || len(added) == 0 {
					t.Fatalf("Apply refused with surviving anchors (dirty=%v added=%v)", dirty, added)
				}
				np = Build(nsp, 3) // re-cluster, as the catalogue would
			} else {
				assertDerived(t, nsp, np)
				if np.Gen != part.Gen {
					t.Fatalf("incremental Apply changed Gen %d -> %d", part.Gen, np.Gen)
				}
			}
			sp, stable, part = nsp, nstable, np
			_ = sp
		}
		if math.IsNaN(part.Imbalance()) {
			t.Fatal("imbalance NaN")
		}
	})
}
