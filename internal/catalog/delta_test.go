package catalog

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"toppkg/internal/feature"
	"toppkg/internal/search"
)

// deltaProfile exercises the normalizer states the delta path maintains:
// a sum dimension (top-φ set with a cutoff) and max/avg extremes, two
// entries sharing feature 0.
func deltaProfile(t testing.TB) *feature.Profile {
	t.Helper()
	p, err := feature.NewProfile(2,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggMax},
		feature.Entry{Feature: 0, Agg: feature.AggAvg},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refBuild compacts a shadow authoritative set the way the catalogue does
// and builds the epoch state from scratch — the oracle every delta-built
// epoch must match bit-for-bit.
func refBuild(t testing.TB, shadow map[int][]float64, p *feature.Profile, maxSize int) (*feature.Space, *search.Index, []int) {
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
	return sp, search.NewIndex(sp), stable
}

// assertEpochMatches checks a catalogue epoch against the from-scratch
// reference: bitwise-equal value columns and scales, the same stable-ID
// assignment, and identical TopK output over random utilities.
func assertEpochMatches(t testing.TB, ep *Epoch, sp *feature.Space, ix *search.Index, stable []int, rng *rand.Rand) {
	t.Helper()
	for f := 0; f < sp.Profile.FeatureCount(); f++ {
		g, w := ep.Space.Col(f), sp.Col(f)
		if len(g) != len(w) {
			t.Fatalf("col[%d]: %d values, want %d", f, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("col[%d][%d]: got %v, want %v", f, i, g[i], w[i])
			}
		}
	}
	for d := 0; d < sp.Dims(); d++ {
		g, w := ep.Space.Scale(d), sp.Scale(d)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("scale[%d]: got %v, want %v", d, g, w)
		}
	}
	if !slices.Equal(ep.ids.stable, stable) {
		t.Fatalf("stable IDs: got %v, want %v", ep.ids.stable, stable)
	}
	for i := range stable {
		if d, ok := ep.DenseID(ep.IDs().StableID(i)); !ok || d != i {
			t.Fatalf("DenseID(StableID(%d)) = %d, %v", i, d, ok)
		}
	}
	for trial := 0; trial < 3; trial++ {
		w := make([]float64, sp.Dims())
		for i := range w {
			w[i] = rng.Float64()*2 - 1
		}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			t.Fatal(err)
		}
		opts := search.Options{K: 3}
		got, err := ep.Index.TopK(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.TopK(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Packages) != len(want.Packages) {
			t.Fatalf("TopK: %d vs %d packages", len(got.Packages), len(want.Packages))
		}
		for i := range got.Packages {
			if !slices.Equal(got.Packages[i].Pkg.IDs, want.Packages[i].Pkg.IDs) ||
				got.Packages[i].Utility != want.Packages[i].Utility {
				t.Fatalf("TopK pkg %d: got %v (%v), want %v (%v)", i,
					got.Packages[i].Pkg.IDs, got.Packages[i].Utility,
					want.Packages[i].Pkg.IDs, want.Packages[i].Utility)
			}
		}
	}
}

func deltaValue(rng *rand.Rand) float64 {
	switch rng.Intn(7) {
	case 0:
		return feature.Null
	case 1:
		return 0
	case 2:
		return 6 // frequent duplicate: stresses cutoff ties
	default:
		return math.Floor(rng.Float64()*200) / 10
	}
}

func deltaItem(rng *rand.Rand, id int) feature.Item {
	return feature.Item{ID: id, Values: []float64{deltaValue(rng), deltaValue(rng)}}
}

// TestDeltaEpochBitIdentical is the tentpole property test: randomized
// upsert/delete batch sequences applied through the delta path produce
// epochs bit-identical to from-scratch builds — same value columns, same
// scales, same ID maps, same TopK results — with delta state chained
// across every step.
func TestDeltaEpochBitIdentical(t *testing.T) {
	p := deltaProfile(t)
	const maxSize = 3
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		shadow := map[int][]float64{}
		var initial []feature.Item
		for i := 0; i < 6+rng.Intn(10); i++ {
			it := deltaItem(rng, i*3) // gaps so inserts can land mid-order
			initial = append(initial, it)
			shadow[it.ID] = it.Values
		}
		c, err := New(Config{
			Profile:        p,
			MaxPackageSize: maxSize,
			Items:          initial,
			Coalesce:       -1,
			DeltaThreshold: 1 << 20, // every batch takes the delta path
		})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			if rng.Intn(4) == 0 && len(shadow) > 2 {
				var ids []int
				for id := range shadow {
					ids = append(ids, id)
					if len(ids) == 2 {
						break
					}
				}
				if _, err := c.Delete(ids); err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					delete(shadow, id)
				}
			} else {
				batch := make([]feature.Item, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = deltaItem(rng, rng.Intn(60))
				}
				if err := c.Upsert(batch); err != nil {
					t.Fatal(err)
				}
				for _, it := range batch {
					shadow[it.ID] = it.Values
				}
			}
			sp, ix, stable := refBuild(t, shadow, p, maxSize)
			assertEpochMatches(t, c.Current(), sp, ix, stable, rng)
		}
		if st := c.Stats(); st.DeltaBuilds == 0 || st.DeltaFallbacks != 0 {
			t.Fatalf("delta path not exercised cleanly: %+v", st)
		}
	}
}

// TestDeltaThresholdRouting pins the decision rule: change sets at or
// under the threshold build incrementally, larger ones (and all builds
// with a negative threshold) rebuild from scratch.
func TestDeltaThresholdRouting(t *testing.T) {
	p := deltaProfile(t)
	newCat := func(threshold int) *Catalog {
		t.Helper()
		rng := rand.New(rand.NewSource(7))
		items := make([]feature.Item, 10)
		for i := range items {
			items[i] = deltaItem(rng, i)
		}
		c, err := New(Config{Profile: p, MaxPackageSize: 3, Items: items, Coalesce: -1, DeltaThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := newCat(2)
	rng := rand.New(rand.NewSource(8))
	small := []feature.Item{deltaItem(rng, 3)}
	if err := c.Upsert(small); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DeltaBuilds != 1 || st.FullRebuilds != 1 {
		t.Fatalf("small batch should delta-build: %+v", st)
	}
	big := []feature.Item{deltaItem(rng, 4), deltaItem(rng, 5), deltaItem(rng, 6)}
	if err := c.Upsert(big); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DeltaBuilds != 1 || st.FullRebuilds != 2 {
		t.Fatalf("over-threshold batch should full-rebuild: %+v", st)
	}

	off := newCat(-1)
	if err := off.Upsert(small); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats(); st.DeltaBuilds != 0 || st.FullRebuilds != 2 {
		t.Fatalf("negative threshold should disable delta builds: %+v", st)
	}
}

// TestDeltaNoOpBatchKeepsEpoch: a batch whose churn nets out to nothing
// (an upsert rewriting identical values and name) keeps the current epoch
// installed — no swap, no subscriber notification, so epoch-keyed result
// caches and snapshot pools stay valid — while still covering the batch
// (Flush returns, Pending clears).
func TestDeltaNoOpBatchKeepsEpoch(t *testing.T) {
	p := deltaProfile(t)
	rng := rand.New(rand.NewSource(9))
	items := make([]feature.Item, 5)
	for i := range items {
		items[i] = deltaItem(rng, i)
		items[i].Name = "n"
	}
	c, err := New(Config{Profile: p, MaxPackageSize: 3, Items: items, Coalesce: -1})
	if err != nil {
		t.Fatal(err)
	}
	var swaps int
	c.Subscribe(func(*Epoch, *ChangeSet) { swaps++ })
	ep1 := c.Current()
	same := feature.Item{ID: 2, Name: "n", Values: append([]float64(nil), items[2].Values...)}
	if err := c.Upsert([]feature.Item{same}); err != nil {
		t.Fatal(err)
	}
	c.Flush() // must not hang: the batch is covered without a swap
	if ep2 := c.Current(); ep2 != ep1 {
		t.Fatalf("no-op batch swapped epochs: %d -> %d", ep1.ID, ep2.ID)
	}
	if swaps != 0 {
		t.Fatalf("no-op batch notified %d subscribers", swaps)
	}
	if st := c.Stats(); st.Pending || st.DeltaBuilds != 1 {
		t.Fatalf("no-op batch not covered cleanly: %+v", st)
	}
	// A real change afterwards still swaps normally.
	if err := c.Upsert([]feature.Item{deltaItem(rng, 2)}); err != nil {
		t.Fatal(err)
	}
	if ep3 := c.Current(); ep3.ID != ep1.ID+1 || swaps != 1 {
		t.Fatalf("real change after no-op: epoch %d, swaps %d", ep3.ID, swaps)
	}
}

// TestDeltaRenameOnlyUpsert: changing only an item's Name is a real
// mutation — served slates resolve names through the epoch's items — and
// must not be filtered as a value-level no-op.
func TestDeltaRenameOnlyUpsert(t *testing.T) {
	p := deltaProfile(t)
	rng := rand.New(rand.NewSource(12))
	items := make([]feature.Item, 5)
	for i := range items {
		items[i] = deltaItem(rng, i)
		items[i].Name = "old"
	}
	c, err := New(Config{Profile: p, MaxPackageSize: 3, Items: items, Coalesce: -1})
	if err != nil {
		t.Fatal(err)
	}
	renamed := feature.Item{ID: 3, Name: "renamed", Values: append([]float64(nil), items[3].Values...)}
	if err := c.Upsert([]feature.Item{renamed}); err != nil {
		t.Fatal(err)
	}
	ep := c.Current()
	d, ok := ep.DenseID(3)
	if !ok || ep.Items()[d].Name != "renamed" {
		t.Fatalf("rename-only upsert not reflected: %+v", ep.Items()[d])
	}
	if st := c.Stats(); st.DeltaBuilds != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("rename should delta-build: %+v", st)
	}
}

// TestDeltaBuildsRaceReaders races background delta builds against
// readers running searches on pinned epochs — the serving-path contract
// that an in-flight search never observes a torn index. Run with -race.
func TestDeltaBuildsRaceReaders(t *testing.T) {
	p := deltaProfile(t)
	rng := rand.New(rand.NewSource(10))
	items := make([]feature.Item, 40)
	shadow := map[int][]float64{}
	for i := range items {
		items[i] = deltaItem(rng, i)
		shadow[i] = items[i].Values
	}
	c, err := New(Config{Profile: p, MaxPackageSize: 3, Items: items, Coalesce: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	u, err := feature.NewUtility(p, []float64{0.7, -0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := c.Current()
				if _, err := ep.Index.TopK(u, search.Options{K: 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	mrng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		it := deltaItem(mrng, mrng.Intn(50))
		if err := c.Upsert([]feature.Item{it}); err != nil {
			t.Fatal(err)
		}
		shadow[it.ID] = it.Values // only this goroutine mutates; compared after Flush
	}
	close(stop)
	wg.Wait()
	c.Flush()
	sp, ix, stable := refBuild(t, shadow, p, 3)
	assertEpochMatches(t, c.Current(), sp, ix, stable, rng)
	if st := c.Stats(); st.DeltaBuilds == 0 {
		t.Fatalf("churn should have exercised the delta path: %+v", st)
	}
}

// --- Fuzzing: random mutation-batch sequences, delta ≡ full rebuild. ---

// fuzzByteValue decodes one byte into a raw feature value: 255 is the
// null sentinel, everything else spreads over [0, 31.75] so the fuzzer
// can cross normalizer cutoffs.
func fuzzByteValue(b byte) float64 {
	if b == 255 {
		return feature.Null
	}
	return float64(b) / 8
}

// FuzzDeltaEpoch feeds random mutation-batch sequences through a
// delta-always catalogue and asserts every resulting epoch bit-identical
// to a full rebuild. Input: data[0] sizes the initial set; then 4-byte
// records [op, id, v0, v1] — op%4: 0/1 upsert with the decoded values,
// 2 delete, 3 upsert rewriting the current values (a no-op batch). The
// committed corpus covers extreme-deletion and cutoff-crossing cases.
func FuzzDeltaEpoch(f *testing.F) {
	f.Add([]byte("\x05\x02\x01\x00\x00"))                                 // delete the max holder on the max dimension
	f.Add([]byte("\x05\x00\x14\xfc\x10\x01\x15\xf8\x08"))                 // two upserts crossing the sum top-φ cutoff
	f.Add([]byte("\x05\x02\x00\x00\x00\x00\x00\x50\x30\x03\x00\x00\x00")) // delete, reinsert, no-op reprice
	f.Add([]byte("\x02\x00\x09\xff\xff\x01\x09\x08\xff"))                 // null-heavy rows (orphan churn)
	p, err := feature.NewProfile(2,
		feature.Entry{Feature: 0, Agg: feature.AggSum},
		feature.Entry{Feature: 1, Agg: feature.AggMax},
		feature.Entry{Feature: 0, Agg: feature.AggAvg},
	)
	if err != nil {
		f.Fatal(err)
	}
	const maxSize = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		n0 := 3 + int(data[0]%6)
		shadow := map[int][]float64{}
		initial := make([]feature.Item, n0)
		for i := 0; i < n0; i++ {
			vals := []float64{float64((i*7 + 0) % 11), float64((i*7 + 3) % 11)}
			initial[i] = feature.Item{ID: i, Values: vals}
			shadow[i] = vals
		}
		c, err := New(Config{
			Profile:        p,
			MaxPackageSize: maxSize,
			Items:          initial,
			Coalesce:       -1,
			DeltaThreshold: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for pos := 1; pos+4 <= len(data); pos += 4 {
			op, id := data[pos]%4, int(data[pos+1]%24)
			switch op {
			case 2:
				if _, ok := shadow[id]; ok && len(shadow) > 1 {
					if _, err := c.Delete([]int{id}); err != nil {
						t.Fatal(err)
					}
					delete(shadow, id)
					if d, ok := c.Current().DenseID(id); ok {
						t.Fatalf("deleted stable ID %d still maps to dense %d", id, d)
					}
				}
			case 3:
				if vals, ok := shadow[id]; ok {
					cp := append([]float64(nil), vals...)
					if err := c.Upsert([]feature.Item{{ID: id, Values: cp}}); err != nil {
						t.Fatal(err)
					}
				}
			default:
				vals := []float64{fuzzByteValue(data[pos+2]), fuzzByteValue(data[pos+3])}
				if err := c.Upsert([]feature.Item{{ID: id, Values: vals}}); err != nil {
					t.Fatal(err)
				}
				shadow[id] = vals
			}
			sp, ix, stable := refBuild(t, shadow, p, maxSize)
			assertEpochMatches(t, c.Current(), sp, ix, stable, rng)
		}
		if st := c.Stats(); st.DeltaFallbacks != 0 || st.BuildErrors != 0 {
			t.Fatalf("delta path fell back or errored: %+v", st)
		}
	})
}
