package catalog

import (
	"math"
	"math/rand"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/search"
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
