package catalog

import (
	"slices"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/skyline"
)

// TestSkylineMaintainedAcrossDeltas: once a monotone search materializes
// the head set, insert-only delta batches maintain it incrementally
// (never a full recompute), every maintained set matches a from-scratch
// computation, and removing a head item takes the recompute path — all
// visible through the Stats counters /healthz surfaces.
func TestSkylineMaintainedAcrossDeltas(t *testing.T) {
	p := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	items := []feature.Item{
		{ID: 0, Values: []float64{5, 1}},
		{ID: 1, Values: []float64{1, 5}},
		{ID: 2, Values: []float64{2, 2}},
		{ID: 3, Values: []float64{1, 1}},
	}
	c, err := New(Config{Profile: p, MaxPackageSize: 2, Items: items, Coalesce: -1, DeltaThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Materialize the head set the way a monotone-utility search would.
	ep := c.Current()
	heads := ep.Index.Heads()
	if want := skyline.Heads(ep.Space); !slices.Equal(heads.Members(), want.Members()) {
		t.Fatalf("initial heads %v != recompute %v", heads.Members(), want.Members())
	}

	// Insert-only batches: always incremental.
	for i := 0; i < 3; i++ {
		id := 10 + i
		if err := c.Upsert([]feature.Item{{ID: id, Values: []float64{float64(i), float64(6 - i)}}}); err != nil {
			t.Fatal(err)
		}
		ep = c.Current()
		got := ep.Index.PeekHeads()
		if got == nil {
			t.Fatalf("insert %d: head set not carried to the new epoch", id)
		}
		if want := skyline.Heads(ep.Space); !slices.Equal(got.Members(), want.Members()) {
			t.Fatalf("insert %d: maintained heads %v != recompute %v", id, got.Members(), want.Members())
		}
	}
	st := c.Stats()
	if st.SkylineIncremental != 3 || st.SkylineRecomputes != 0 {
		t.Fatalf("insert-only batches: incremental=%d recomputes=%d, want 3/0", st.SkylineIncremental, st.SkylineRecomputes)
	}

	// Deleting a non-head item stays incremental.
	if _, err := c.Delete([]int{3}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.SkylineIncremental != 4 || st.SkylineRecomputes != 0 {
		t.Fatalf("non-head delete: incremental=%d recomputes=%d, want 4/0", st.SkylineIncremental, st.SkylineRecomputes)
	}

	// Deleting a head item forces the recompute path — and the recomputed
	// set is still correct.
	ep = c.Current()
	head := int(ep.Index.PeekHeads().Members()[0])
	if _, err := c.Delete([]int{ep.IDs().StableID(head)}); err != nil {
		t.Fatal(err)
	}
	ep = c.Current()
	got := ep.Index.PeekHeads()
	if got == nil {
		t.Fatal("head delete: head set dropped instead of recomputed")
	}
	if want := skyline.Heads(ep.Space); !slices.Equal(got.Members(), want.Members()) {
		t.Fatalf("head delete: heads %v != recompute %v", got.Members(), want.Members())
	}
	st = c.Stats()
	if st.SkylineRecomputes != 1 {
		t.Fatalf("head delete: recomputes=%d, want 1", st.SkylineRecomputes)
	}
}
