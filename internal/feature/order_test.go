package feature

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// orderPalette holds the keys a comparison sort and a radix sort are most
// likely to disagree on: both zeros, the smallest subnormals, the extremes
// and both infinities, next to ordinary values of either sign.
var orderPalette = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2 * math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), 1, -1, 0.5, 0.25, 1 + 0x1p-52, 1 - 0x1p-53, 3.75, -3.75, 1e300, -1e-300,
}

// orderReference sorts ids by keys[id] with a comparison sort and the id as
// tie-break: the order Order must reproduce.
func orderReference(ids []int32, keys []float64, desc bool) []int32 {
	out := slices.Clone(ids)
	slices.SortFunc(out, func(a, b int32) int {
		va, vb := keys[a], keys[b]
		if va != vb {
			if (va < vb) != desc {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	return out
}

// checkOrder runs Order on ids (ascending, as every caller passes them) under
// both directions, with no scratch and with a shared one, against the
// reference.
func checkOrder(t *testing.T, ids []int32, keys []float64, label string) {
	t.Helper()
	scratch := make([]int32, len(ids))
	for _, desc := range []bool{false, true} {
		want := orderReference(ids, keys, desc)
		for _, s := range [][]int32{nil, scratch} {
			got := slices.Clone(ids)
			Order(got, keys, desc, s)
			if !slices.Equal(got, want) {
				t.Fatalf("%s desc=%v scratch=%v: Order %v, comparison sort %v", label, desc, s != nil, head(got), head(want))
			}
		}
	}
}

func head(ids []int32) []int32 { return ids[:min(len(ids), 16)] }

// TestOrderMatchesComparisonSort holds the radix kernel to the comparison
// sort on adversarial columns: palette keys (±0, subnormals, ±MaxFloat64,
// ±Inf), long runs of one value, all-equal columns, coarse grids with many
// duplicates, negatives, and id lists with gaps (the nulls a caller leaves
// out), at the sizes where the kernel's edge cases live.
func TestOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := []struct {
		name string
		gen  func(i int) float64
	}{
		{"palette", func(int) float64 { return orderPalette[rng.Intn(len(orderPalette))] }},
		{"runs", func(i int) float64 { return orderPalette[(i/97)%len(orderPalette)] }},
		{"constant", func(int) float64 { return math.Copysign(0, -1) }},
		{"grid", func(int) float64 { return float64(rng.Intn(9)-4) / 4 }},
		{"uniform", func(int) float64 { return rng.Float64() }},
		{"signed", func(int) float64 { return rng.NormFloat64() * 1e-300 }},
		{"bits", func(int) float64 {
			v := math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) {
				return 0
			}
			return v
		}},
	}
	for _, g := range gens {
		for _, n := range []int{0, 1, 2, 3, 1000} {
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = g.gen(i)
			}
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(i)
			}
			checkOrder(t, ids, keys, g.name)
			gapped := ids[:0:0]
			for _, id := range ids {
				if id%3 != 1 {
					gapped = append(gapped, id)
				}
			}
			checkOrder(t, gapped, keys, g.name+"/gapped")
		}
	}
}

// TestOrderColumnsMatchesComparisonSort holds OrderColumns to the
// comparison sort of each column's non-null ids, below and above
// BuildGrain, at one worker and at four: columns of different null counts
// (so a list cannot borrow a shorter list's storage), an all-null column,
// runs of one value, a constant column and palette keys.
func TestOrderColumnsMatchesComparisonSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(2))
	gens := []func(i int) float64{
		func(i int) float64 { return orderPalette[(i/97)%len(orderPalette)] },
		func(i int) float64 {
			if i%3 == 0 {
				return Null
			}
			return float64(rng.Intn(9)-4) / 4
		},
		func(int) float64 { return Null },
		func(i int) float64 {
			if i%5 == 0 {
				return Null
			}
			return rng.Float64()
		},
		func(int) float64 { return math.Copysign(0, -1) },
		func(int) float64 { return orderPalette[rng.Intn(len(orderPalette))] },
		func(int) float64 { return rng.NormFloat64() },
	}
	for _, n := range []int{1000, 3*BuildGrain + 7} {
		cols := make([][]float64, len(gens))
		for j, gen := range gens {
			cols[j] = make([]float64, n)
			for i := range cols[j] {
				cols[j][i] = gen(i)
			}
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			lists := make([][]int32, len(cols))
			var want [][]int32
			for j, col := range cols {
				var ids []int32
				for i, v := range col {
					if !IsNull(v) {
						ids = append(ids, int32(i))
					}
				}
				lists[j] = make([]int32, len(ids))
				want = append(want, orderReference(ids, col, false))
			}
			OrderColumns(cols, lists, make([]int32, n))
			for j := range lists {
				if !slices.Equal(lists[j], want[j]) {
					t.Fatalf("n=%d procs=%d column %d: OrderColumns %v, comparison sort %v", n, procs, j, head(lists[j]), head(want[j]))
				}
			}
		}
	}
}

// FuzzOrder holds Order to the comparison sort on fuzzer-made columns. The
// first byte picks the column's shape: bit 0 reads each following byte as a
// palette index (duplicates and the special values), otherwise each eight
// bytes are one key's bits (NaN read as 0); bit 1 leaves every third id out.
func FuzzOrder(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0, 1, 0, 1})
	f.Add([]byte{3, 9, 9, 9, 10, 10, 0, 1, 1, 0, 7, 8, 7, 8})
	f.Add(append([]byte{0}, make([]byte, 64)...))
	f.Add([]byte{2, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, data := data[0], data[1:]
		var keys []float64
		if mode&1 != 0 {
			for _, b := range data {
				keys = append(keys, orderPalette[int(b)%len(orderPalette)])
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if math.IsNaN(v) {
					v = 0
				}
				keys = append(keys, v)
			}
		}
		var ids []int32
		for i := range keys {
			if mode&2 == 0 || i%3 != 1 {
				ids = append(ids, int32(i))
			}
		}
		checkOrder(t, ids, keys, "fuzz")
	})
}
