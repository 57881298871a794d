package search

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
)

// TestPartitionExact: on uncapped, unbudgeted runs the sketch-refine path
// is bit-identical to the unpartitioned search — for every agg mix, weight
// signs that make the utility monotone (where partitioning engages) and
// ones that do not (where it must gate itself off), nulls, ties, and k up
// to the catalogue size. The partition is forced on (explicit cluster
// count) so small random spaces exercise the levers; dominance runs both
// on and off, as do paper mode and ExpandAll.
func TestPartitionExact(t *testing.T) {
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg, feature.AggNull}
	skipped := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		m := 1 + rng.Intn(4)
		dims := make([]feature.Agg, m)
		for d := range dims {
			dims[d] = aggs[rng.Intn(len(aggs))]
		}
		nullable := rng.Intn(2) == 0
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, m)
			for j := range vals {
				vals[j] = pruneValue(rng, nullable)
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		p := feature.SimpleProfile(dims...)
		maxSize := 1 + rng.Intn(3)
		sp, err := feature.NewSpace(items, p, maxSize)
		if err != nil {
			t.Log(err)
			return false
		}
		w := make([]float64, m)
		for d := range w {
			mag := rng.Float64()
			if rng.Intn(5) == 0 {
				mag = 0
			}
			switch {
			case rng.Intn(4) == 0: // wrong-sign weight: must gate off
				switch dims[d] {
				case feature.AggMin:
					w[d] = mag
				default:
					w[d] = -mag
				}
			case dims[d] == feature.AggMin:
				w[d] = -mag
			default:
				w[d] = mag
			}
		}
		u, err := feature.NewUtility(p, w)
		if err != nil {
			t.Log(err)
			return false
		}
		k := 1 + rng.Intn(n)
		ix := NewIndex(sp)
		ix.ConfigurePartition(1+rng.Intn(6), nil)
		for _, expandAll := range []bool{false, true} {
			for _, disableDom := range []bool{false, true} {
				opts := Options{K: k, MaxQueue: -1, ExpandAll: expandAll, DisableDominancePrune: disableDom}
				part, err := ix.TopK(u, opts)
				if err != nil {
					t.Log(err)
					return false
				}
				opts.DisablePartition = true
				plain, err := ix.TopK(u, opts)
				if err != nil {
					t.Log(err)
					return false
				}
				if plain.SketchSkipped != 0 || plain.RefineClustersOpened != 0 {
					t.Log("disabled run reported partition work")
					return false
				}
				if !assertSameResult(t, part, plain, "partition-exact") {
					return false
				}
				skipped += part.SketchSkipped
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if skipped == 0 {
		t.Error("sketch skip never fired across all trials — the suite is not exercising it")
	}
}

// TestPartitionMatchesBruteForce: the partitioned exact search matches the
// brute-force oracle directly on monotone profiles.
func TestPartitionMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		items := make([]feature.Item, n)
		for i := range items {
			items[i] = feature.Item{ID: i, Values: []float64{
				pruneValue(rng, false), pruneValue(rng, false), pruneValue(rng, false)}}
		}
		p := feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggMin)
		maxSize := 1 + rng.Intn(3)
		sp, err := feature.NewSpace(items, p, maxSize)
		if err != nil {
			return false
		}
		w := []float64{rng.Float64(), rng.Float64(), -rng.Float64()}
		u, err := feature.NewUtility(p, w)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(4)
		ix := NewIndex(sp)
		ix.ConfigurePartition(1+rng.Intn(4), nil)
		res, err := ix.TopK(u, Options{K: k, MaxQueue: -1, ExpandAll: true})
		if err != nil {
			t.Fatal(err)
		}
		want := pkgspace.BruteForceTopK(sp, u, k)
		if len(res.Packages) != len(want) {
			t.Logf("len mismatch: got %d, want %d", len(res.Packages), len(want))
			return false
		}
		for i := range want {
			if math.Abs(res.Packages[i].Utility-want[i].Utility) > 1e-9 {
				t.Logf("rank %d: got %s u=%.6f, want %s u=%.6f",
					i, res.Packages[i].Pkg, res.Packages[i].Utility, want[i].Pkg, want[i].Utility)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPartitionGatesOffNonMonotone: a weighted avg dimension must keep
// partitioning disengaged — and unmaterialized — even with an explicit
// cluster count.
func TestPartitionGatesOffNonMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := make([]feature.Item, 40)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg), 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	ix.ConfigurePartition(4, nil)
	u, err := feature.NewUtility(sp.Profile, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.TopK(u, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.SketchSkipped != 0 || res.RefineClustersOpened != 0 {
		t.Fatalf("partition engaged on a weighted-avg profile: %+v", res)
	}
	if ix.PeekPartition() != nil {
		t.Fatal("partition materialized for a non-monotone run")
	}
}

// TestPartitionBeamedRefine exercises the beamed sketch-refine path end to
// end: partitioning engages, leaves most of the catalogue unopened, and
// returns internally consistent real packages (utilities re-verified
// against a fresh state; beamed results are best-effort by contract).
func TestPartitionBeamedRefine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := make([]feature.Item, 5000)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggSum), 4)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	u, err := feature.NewUtility(sp.Profile, []float64{1, 0.7, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.TopK(u, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ix.PeekPartition() == nil {
		t.Fatal("partition not materialized at 5000 items")
	}
	if res.SketchSkipped == 0 {
		t.Error("beamed refine opened the whole catalogue")
	}
	if res.RefineClustersOpened == 0 || res.RefineClustersOpened >= ix.PeekPartition().K {
		t.Errorf("implausible refine_clusters_opened=%d of %d", res.RefineClustersOpened, ix.PeekPartition().K)
	}
	if len(res.Packages) != 5 {
		t.Fatalf("got %d packages, want 5", len(res.Packages))
	}
	for i, s := range res.Packages {
		if i > 0 && s.Utility > res.Packages[i-1].Utility {
			t.Errorf("results out of order at rank %d", i)
		}
		st := feature.NewState(sp)
		for _, id := range s.Pkg.IDs {
			st.Add(sp.Items[id])
		}
		if got := u.ScoreState(st); math.Abs(got-s.Utility) > 1e-9 {
			t.Errorf("rank %d utility %.9f does not match recomputed %.9f", i, s.Utility, got)
		}
	}
	// On this benign uniform catalogue the refined beam must find at least
	// as good a top package as the plain beam (it concentrates the beam on
	// the best clusters).
	plain, err := ix.TopK(u, Options{K: 5, DisablePartition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages[0].Utility < plain.Packages[0].Utility-1e-9 {
		t.Errorf("partitioned top %.9f below plain beam top %.9f",
			res.Packages[0].Utility, plain.Packages[0].Utility)
	}
}

// TestPartitionCacheKey: DisablePartition must produce a distinct cache
// key — a partitioned beam and a plain beam are different results.
func TestPartitionCacheKey(t *testing.T) {
	a, ok := Options{K: 5}.CacheKey()
	if !ok {
		t.Fatal("cache key unexpectedly invalid")
	}
	b, ok := Options{K: 5, DisablePartition: true}.CacheKey()
	if !ok {
		t.Fatal("cache key unexpectedly invalid")
	}
	if a == b {
		t.Fatalf("cache keys collide: %q", a)
	}
}
