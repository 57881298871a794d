package catalog

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/search"
	"toppkg/internal/skyline"
)

func partItems(n int, seed int64) []feature.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]feature.Item, n)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64() * 4, rng.Float64() * 4}}
	}
	return items
}

// wideBeam is a beam no search over these catalogues truncates: the search
// partitions, yet it is exact.
var wideBeam = search.Options{MaxQueue: 1 << 20, ExpandAll: true}

// assertPartitionedExact runs the same untruncated beam partitioned and
// unpartitioned on the epoch and requires equal utilities rank by rank —
// the invariant incremental maintenance must preserve across deltas.
func assertPartitionedExact(t *testing.T, ep *Epoch, u *feature.Utility, k int) {
	t.Helper()
	opts := wideBeam
	opts.K = k
	part, err := ep.Index.TopK(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if part.RefineClustersOpened == 0 {
		t.Fatal("the search did not partition")
	}
	opts.DisablePartition = true
	plain, err := ep.Index.TopK(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Packages) != len(plain.Packages) {
		t.Fatalf("partitioned %d packages != plain %d", len(part.Packages), len(plain.Packages))
	}
	for i := range part.Packages {
		if math.Abs(part.Packages[i].Utility-plain.Packages[i].Utility) > 1e-9 {
			t.Fatalf("rank %d: partitioned %v (%.9f) != plain %v (%.9f)",
				i, part.Packages[i].Pkg.IDs, part.Packages[i].Utility,
				plain.Packages[i].Pkg.IDs, plain.Packages[i].Utility)
		}
	}
}

// TestPartitionMaintainedAcrossDeltas mirrors the skyline test: once the
// partition is materialized, delta batches carry it forward incrementally
// (same Gen, new items assigned, exact search results preserved), and the
// Stats counters /healthz surfaces record the incremental/recluster split.
func TestPartitionMaintainedAcrossDeltas(t *testing.T) {
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	c, err := New(Config{Profile: p, MaxPackageSize: 2, Items: partItems(16, 2),
		Coalesce: -1, DeltaThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u, err := feature.NewUtility(p, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pp := c.Current().Index.EnsurePartition(3)

	for i := 0; i < 3; i++ {
		id := 100 + i
		if err := c.Upsert([]feature.Item{{ID: id, Values: []float64{4.5, float64(i)}}}); err != nil {
			t.Fatal(err)
		}
		ep := c.Current()
		np := ep.Index.PeekPartition()
		if np == nil {
			t.Fatalf("insert %d: partition not carried to the new epoch", id)
		}
		if np.Gen != pp.Gen {
			t.Fatalf("insert %d: incremental maintenance changed Gen %d -> %d", id, pp.Gen, np.Gen)
		}
		if len(np.Assign) != len(ep.Items()) {
			t.Fatalf("insert %d: Assign covers %d of %d items", id, len(np.Assign), len(ep.Items()))
		}
		if st := c.Stats(); st.PartitionIncremental != int64(i+1) || st.PartitionReclusters != 0 {
			t.Fatalf("insert %d: incremental=%d reclusters=%d, want %d/0",
				id, st.PartitionIncremental, st.PartitionReclusters, i+1)
		}
		assertPartitionedExact(t, ep, u, 3)
	}
	st := c.Stats()
	if st.PartitionClusters != pp.K {
		t.Fatalf("stats clusters=%d, want %d", st.PartitionClusters, pp.K)
	}
	if st.PartitionSearches == 0 {
		t.Fatal("partition-engaged searches not counted")
	}
}

// TestPartitionReclusterOnImbalance: re-pricing every representative in
// one batch removes each one's old row, which leaves incremental
// maintenance no anchor to assign the re-priced rows by, so the delta
// build re-clusters from scratch — at the ⌈√n⌉ default — bumping Gen and
// the Stats recluster counter.
func TestPartitionReclusterOnImbalance(t *testing.T) {
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	c, err := New(Config{Profile: p, MaxPackageSize: 2, Items: partItems(16, 3),
		Coalesce: -1, DeltaThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u, err := feature.NewUtility(p, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ep := c.Current()
	pp := ep.Index.EnsurePartition(3)
	var repriced []feature.Item
	for i, rep := range pp.Reps {
		repriced = append(repriced, feature.Item{ID: ep.IDs().StableID(int(rep)), Values: []float64{9, float64(i)}})
	}
	if err := c.Upsert(repriced); err != nil {
		t.Fatal(err)
	}
	ep = c.Current()
	np := ep.Index.PeekPartition()
	if np == nil {
		t.Fatal("partition dropped instead of re-clustered")
	}
	if np.K != partition.DefaultClusters(len(ep.Items())) {
		t.Fatalf("recluster built %d clusters, want the default %d", np.K, partition.DefaultClusters(len(ep.Items())))
	}
	if np.Gen != pp.Gen+1 {
		t.Fatalf("recluster Gen = %d, want %d", np.Gen, pp.Gen+1)
	}
	if st := c.Stats(); st.PartitionReclusters != 1 || st.PartitionIncremental != 0 {
		t.Fatalf("reclusters=%d incremental=%d, want 1/0", st.PartitionReclusters, st.PartitionIncremental)
	}
	assertPartitionedExact(t, ep, u, 3)
}

// TestFullRebuildCarriesHeadsAndPartition: a change set past the delta
// threshold rebuilds the index from scratch, and the new epoch must still
// carry what the parent had materialized — the head set and the partition
// (re-clustered at the ⌈√n⌉ default, one generation on) — built before
// install, so its first search does not build them while every search
// racing it waits. The skyline and partition counters stay the delta
// builds'; the searches match a fresh index's, which builds both lazily.
func TestFullRebuildCarriesHeadsAndPartition(t *testing.T) {
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	c, err := New(Config{Profile: p, MaxPackageSize: 2, Items: partItems(600, 4), Coalesce: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u, err := feature.NewUtility(p, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	parent := c.Current()
	parent.Index.Heads()
	pp := parent.Index.EnsurePartition(0)

	batch := partItems(DefaultDeltaThreshold+44, 5)
	for i := range batch {
		batch[i].ID += 1000
	}
	if err := c.Upsert(batch); err != nil {
		t.Fatal(err)
	}
	ep := c.Current()
	if st := c.Stats(); st.FullRebuilds != 2 || st.DeltaBuilds != 0 {
		t.Fatalf("full=%d delta=%d, want a full rebuild past the threshold", st.FullRebuilds, st.DeltaBuilds)
	}
	heads := ep.Index.PeekHeads()
	if heads == nil {
		t.Fatal("the full rebuild dropped the head set")
	}
	if want := skyline.Heads(ep.Space); !reflect.DeepEqual(heads, want) {
		t.Fatal("the carried head set is not the new space's skyline")
	}
	np := ep.Index.PeekPartition()
	if np == nil {
		t.Fatal("the full rebuild dropped the partition")
	}
	if np.K != partition.DefaultClusters(len(ep.Items())) || np.Gen != pp.Gen+1 {
		t.Fatalf("partition K=%d Gen=%d, want K=%d Gen=%d", np.K, np.Gen, partition.DefaultClusters(len(ep.Items())), pp.Gen+1)
	}
	if st := c.Stats(); st.SkylineRecomputes != 0 || st.PartitionReclusters != 0 {
		t.Fatalf("skyline recomputes=%d partition reclusters=%d, want 0/0: they count delta builds", st.SkylineRecomputes, st.PartitionReclusters)
	}
	opts := search.Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
	got, err := ep.Index.TopK(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := search.NewIndex(ep.Space)
	fresh.EnsurePartition(0)
	want, err := fresh.TopK(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.RefineClustersOpened == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("search on the rebuilt epoch %+v, on a fresh index %+v", got, want)
	}
	assertPartitionedExact(t, ep, u, 3)
}
