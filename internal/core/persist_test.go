package core

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"toppkg/internal/catalog"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/search"
)

func persistEngine(t *testing.T) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(200))
	e, err := New(Config{
		Items:          dataset.UNI(30, 2, rng),
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 2,
		K:              2,
		SampleCount:    80,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := persistEngine(t)
	if err := e.Feedback(pkgspace.New(0, 1), pkgspace.New(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Feedback(pkgspace.New(2), pkgspace.New(3)); err != nil {
		t.Fatal(err)
	}
	slate1, err := e.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, e.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// Fresh engine over the same catalogue: restore and compare behaviour.
	e2 := persistEngine(t)
	snap, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := e2.Stats().Feedback, e.Stats().Feedback; got != want {
		t.Errorf("restored Feedback = %d, want %d", got, want)
	}
	if got, want := e2.pinned().graph.Edges(), e.pinned().graph.Edges(); got != want {
		t.Errorf("restored edges = %d, want %d", got, want)
	}
	s1, err := e.Samples()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e2.Samples()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("restored pool size %d, want %d", len(s2), len(s1))
	}
	for i := range s1 {
		for j := range s1[i].W {
			if s1[i].W[j] != s2[i].W[j] {
				t.Fatalf("sample %d dim %d differs", i, j)
			}
		}
	}
	// Recommendations from the restored engine must match (same pool, same
	// constraints; the rng streams differ but ranking is pool-driven).
	slate2, err := e2.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	for i := range slate1.Recommended {
		if slate1.Recommended[i].Pkg.Signature() != slate2.Recommended[i].Pkg.Signature() {
			t.Errorf("restored recommendation %d differs: %s vs %s",
				i, slate1.Recommended[i].Pkg, slate2.Recommended[i].Pkg)
		}
	}
}

func TestSnapshotWithoutSampling(t *testing.T) {
	e := persistEngine(t)
	if err := e.Feedback(pkgspace.New(0), pkgspace.New(1)); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if len(s.Samples) != 0 {
		t.Errorf("unsampled engine snapshot has %d samples", len(s.Samples))
	}
	if len(s.Preferences) != 1 {
		t.Errorf("snapshot has %d preferences, want 1", len(s.Preferences))
	}
	e2 := persistEngine(t)
	if _, err := e2.Restore(s); err != nil {
		t.Fatal(err)
	}
	// The restored engine draws a fresh pool under the restored constraints.
	samples, err := e2.Samples()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("restored engine failed to sample")
	}
}

func TestRestoreValidation(t *testing.T) {
	e := persistEngine(t)
	if _, err := e.Restore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := e.Restore(&Snapshot{Version: 99}); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := e.Restore(&Snapshot{Version: 3}); err == nil {
		t.Error("future version accepted")
	}
	if _, err := e.Restore(&Snapshot{Version: 1}); err == nil {
		t.Error("v1 accepted")
	}
	if _, err := e.Restore(&Snapshot{Version: 2, Samples: [][]float64{{1}}, Weights: nil}); err == nil {
		t.Error("sample/weight length mismatch accepted")
	}
	if _, err := e.Restore(&Snapshot{Version: 2, Samples: [][]float64{{1, 2, 3}}, Weights: []float64{1}}); err == nil {
		t.Error("dims mismatch accepted")
	}
}

// TestRestoreV2DropsVanished: v2 restore treats unknown stable IDs as
// churn, not corruption — members are dropped and counted, a side that
// empties out (or both sides collapsing to the same package) drops the
// preference, and the surviving state restores cleanly. So does a side of
// more than φ surviving items: φ is a deployment setting, and no feedback
// in this deployment can produce such a constraint.
func TestRestoreV2DropsVanished(t *testing.T) {
	e := persistEngine(t) // 30 items: stable IDs 0..29, φ = 2
	snap := &Snapshot{Version: 2, Preferences: []PreferencePair{
		{Winner: []int{0, 1}, Loser: []int{2}},                // intact
		{Winner: []int{3, 10000}, Loser: []int{4}},            // winner loses one member
		{Winner: []int{10001}, Loser: []int{5}},               // winner empties: pref dropped
		{Winner: []int{6, 10002}, Loser: []int{10003, 6}},     // collapse to {6}≻{6}: dropped
		{Winner: []int{0, 1, 2, 3, 4, 5, 6}, Loser: []int{7}}, // 7 items > φ: dropped
		{Winner: []int{8, 9, 10004}, Loser: []int{10}},        // shrinks to φ: kept
	}}
	if _, err := e.Restore(snap); err != nil {
		t.Fatalf("v2 snapshot with vanished items rejected: %v", err)
	}
	st := e.Stats()
	items, prefs := st.RestoreDroppedItems, st.RestoreDroppedPrefs
	if items != 5 || prefs != 3 {
		t.Errorf("restore drops = (%d, %d), want (5, 3)", items, prefs)
	}
	if got := e.pinned().graph.Edges(); got != 3 {
		t.Errorf("restored %d edges, want 3", got)
	}
	// The engine is fully usable afterwards.
	if _, err := e.Recommend(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreV2DropsContradiction: remaps can collapse two once-distinct
// preferences into a contradiction; the later one is dropped and counted
// rather than failing the restore.
func TestRestoreV2DropsContradiction(t *testing.T) {
	e := persistEngine(t)
	snap := &Snapshot{Version: 2, Preferences: []PreferencePair{
		{Winner: []int{0}, Loser: []int{1}},
		{Winner: []int{1}, Loser: []int{0, 10000}}, // remaps to {1}≻{0}: cycle
	}}
	if _, err := e.Restore(snap); err != nil {
		t.Fatalf("restore failed on a remapped contradiction: %v", err)
	}
	st := e.Stats()
	items, prefs := st.RestoreDroppedItems, st.RestoreDroppedPrefs
	if items != 1 || prefs != 1 {
		t.Errorf("restore drops = (%d, %d), want (1, 1)", items, prefs)
	}
	if got := e.pinned().graph.Edges(); got != 1 {
		t.Errorf("restored %d edges, want 1", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestRestorePoolRequiresSameGeometry: a snapshot imported into a
// deployment whose items carry different values must not install the
// pool: the samples were maintained against different package-vector
// geometry, hence other constraints. The preferences still restore; only
// the pool is redrawn.
func TestRestorePoolRequiresSameGeometry(t *testing.T) {
	e := persistEngine(t)
	if err := e.Feedback(pkgspace.New(0, 1), pkgspace.New(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend(); err != nil { // draw the pool
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if len(snap.Samples) == 0 {
		t.Fatal("precondition: snapshot must carry the pool")
	}

	// Same catalogue → pool installed verbatim.
	same := persistEngine(t)
	if _, err := same.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if same.pool == nil {
		t.Fatal("identical-geometry restore dropped the pool")
	}

	// Same shape and stable IDs, different values (both at epoch 0).
	rng := rand.New(rand.NewSource(999))
	other, err := New(Config{
		Items:          dataset.UNI(30, 2, rng),
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 2,
		K:              2,
		SampleCount:    80,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Restore(snap); err != nil {
		t.Fatalf("cross-deployment restore failed: %v", err)
	}
	if other.pinned().graph.Edges() != 1 {
		t.Fatalf("preferences lost: %d edges", other.pinned().graph.Edges())
	}
	if other.pool != nil {
		t.Fatal("pool maintained against different geometry was installed verbatim")
	}
}

// TestRestorePoolRequiresSameIdentity: two catalogues can hold the same
// dense value sequence under shifted stable-ID windows, so a shared
// stable ID names DIFFERENT items in each. The preferences then rebuild
// to other constraints, and the pool must be redrawn even though no
// preference member is dropped.
func TestRestorePoolRequiresSameIdentity(t *testing.T) {
	prof := feature.SimpleProfile(feature.AggSum, feature.AggAvg)
	vals := func(i int) []float64 { return []float64{0.1 * float64(i+1), 0.9 - 0.1*float64(i)} }
	mkCat := func(firstID int) *catalog.Catalog {
		items := make([]feature.Item, 8)
		for i := range items {
			items[i] = feature.Item{ID: firstID + i, Values: vals(i)}
		}
		cat, err := catalog.New(catalog.Config{Profile: prof, MaxPackageSize: 2, Items: items, Coalesce: -1})
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	mkEng := func(cat *catalog.Catalog) *Engine {
		sh, err := NewLiveShared(Config{K: 2, SampleCount: 40, Seed: 9,
			Search: search.Options{MaxQueue: 32, MaxAccessed: 100}}, cat)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sh.NewEngine(0)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// A: stable IDs 1..8; B: stable IDs 2..9 — same dense values, so
	// stable 2..8 exist in both but name shifted items.
	a, b := mkEng(mkCat(1)), mkEng(mkCat(2))
	for f := 0; f < prof.FeatureCount(); f++ {
		if !slices.Equal(a.Space().Col(f), b.Space().Col(f)) {
			t.Fatal("precondition: dense value sequences must be equal")
		}
	}
	// Preference over stable {3} ≻ {4}: dense 2,3 in A.
	if err := a.Feedback(pkgspace.New(2), pkgspace.New(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recommend(); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if len(snap.Samples) == 0 {
		t.Fatal("precondition: snapshot must carry the pool")
	}
	report, err := b.Restore(snap)
	if err != nil {
		t.Fatalf("restore into shifted catalogue failed: %v", err)
	}
	if report.DroppedItems != 0 || report.DroppedPrefs != 0 {
		t.Fatalf("unexpected drops (%d, %d): stable 3,4 exist in both catalogues", report.DroppedItems, report.DroppedPrefs)
	}
	if b.pool != nil {
		t.Fatal("pool installed across a permuted stable-ID assignment")
	}
}

// TestRestoreLegacyPoolFields: a v2 file written before snapshots
// carried constraints_hash still decodes. Its pool is kept only when it
// has no preferences (the empty constraint set hashes to 0); otherwise it
// is redrawn under the rebuilt constraints. The pool has the engine's
// SampleCount (80), as every pool the sampler draws does.
func TestRestoreLegacyPoolFields(t *testing.T) {
	pool := `"samples":[` + strings.TrimSuffix(strings.Repeat(`[0.1,0.2],`, 80), ",") +
		`],"weights":[` + strings.TrimSuffix(strings.Repeat(`1,`, 80), ",") + `]}`
	for _, tc := range []struct {
		name     string
		json     string
		keepPool bool
	}{
		{"preferences and samples", `{"version":2,"epoch":3,"space_hash":1234567890123456789,"id_hash":42,` +
			`"preferences":[{"winner":[0],"loser":[1]}],` + pool, false},
		{"samples only", `{"version":2,"epoch":3,"space_hash":1234567890123456789,"id_hash":42,` +
			`"preferences":null,` + pool, true},
	} {
		snap, err := ReadSnapshot(strings.NewReader(tc.json))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := persistEngine(t)
		if _, err := e.Restore(snap); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := e.pool != nil; got != tc.keepPool {
			t.Errorf("%s: pool kept = %v, want %v", tc.name, got, tc.keepPool)
		}
		if got := e.pinned().graph.Edges(); got != len(snap.Preferences) {
			t.Errorf("%s: restored %d edges, want %d", tc.name, got, len(snap.Preferences))
		}
	}
}

// TestRestoreV2CountsMergedDuplicates: shrinkage can collapse two distinct
// preferences onto the same edge; the silent duplicate no-op still cost
// the user a recorded preference, and the counters must say so.
func TestRestoreV2CountsMergedDuplicates(t *testing.T) {
	for name, prefs := range map[string][]PreferencePair{
		"shrinker first": {
			{Winner: []int{0, 10000}, Loser: []int{1}},
			{Winner: []int{0}, Loser: []int{1}},
		},
		"shrinker second": {
			{Winner: []int{0}, Loser: []int{1}},
			{Winner: []int{0, 10000}, Loser: []int{1}},
		},
	} {
		e := persistEngine(t)
		if _, err := e.Restore(&Snapshot{Version: 2, Preferences: prefs}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := e.Stats()
		items, dropped := st.RestoreDroppedItems, st.RestoreDroppedPrefs
		if items != 1 || dropped != 1 {
			t.Errorf("%s: restore drops = (%d, %d), want (1, 1): two preferences merged into one edge", name, items, dropped)
		}
		if got := e.pinned().graph.Edges(); got != 1 {
			t.Errorf("%s: %d edges, want 1", name, got)
		}
	}
}

// TestRestoreRedrawsPoolOfAnotherSize: the sampler draws SampleCount
// samples and no other number, so a snapshot pool of another size is not
// installed even when its constraints hash matches. Every later recommend
// ranks as many vectors as the pool holds, so a larger pool would
// multiply the session's searches. The first Recommend after the restore
// redraws SampleCount samples and ranks exactly those.
func TestRestoreRedrawsPoolOfAnotherSize(t *testing.T) {
	e := persistEngine(t)
	if err := e.Feedback(pkgspace.New(0, 1), pkgspace.New(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	n := len(snap.Samples)
	if n != e.cfg.SampleCount {
		t.Fatalf("precondition: snapshot pool has %d samples, want %d", n, e.cfg.SampleCount)
	}
	for _, size := range []int{15 * n, n + 1, n - 1} {
		s := *snap
		s.Samples, s.Weights = nil, nil
		for i := 0; i < size; i++ {
			s.Samples = append(s.Samples, snap.Samples[i%n])
			s.Weights = append(s.Weights, snap.Weights[i%n])
		}
		r := persistEngine(t)
		if _, err := r.Restore(&s); err != nil {
			t.Fatal(err)
		}
		if r.pool != nil {
			t.Fatalf("%d-sample pool installed into a %d-sample engine", size, n)
		}
		before := r.Stats().RankSamples
		if _, err := r.Recommend(); err != nil {
			t.Fatal(err)
		}
		if got := r.Stats().RankSamples - before; got != n {
			t.Fatalf("after restoring a %d-sample pool, Recommend ranked %d vectors, want %d", size, got, n)
		}
	}
	kept := persistEngine(t)
	if _, err := kept.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if kept.pool == nil || len(kept.pool.Samples) != n {
		t.Fatal("a pool of the engine's own size and constraints was not kept")
	}
}
