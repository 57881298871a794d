package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

func testConfig(t *testing.T, n int) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(100))
	return Config{
		Items:          dataset.UNI(n, 3, rng),
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax),
		MaxPackageSize: 3,
		K:              3,
		SampleCount:    200,
		Seed:           7,
	}
}

func TestNewDefaults(t *testing.T) {
	e, err := New(testConfig(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.K != 3 || e.cfg.RandomCount != 3 {
		t.Errorf("defaults: K=%d RandomCount=%d", e.cfg.K, e.cfg.RandomCount)
	}
	if e.cfg.Psi != 1 {
		t.Errorf("default Psi = %g", e.cfg.Psi)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing profile accepted")
	}
	cfg := testConfig(t, 10)
	cfg.Items = nil
	if _, err := New(cfg); err == nil {
		t.Error("missing items accepted")
	}
}

// TestNewRejectsOutOfRange: negative sizes and a Psi outside [0, 1] fail at
// New and NewShared, before any Recommend could use them; 0 still selects
// the default.
func TestNewRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"SampleCount", func(c *Config) { c.SampleCount = -1 }},
		{"K", func(c *Config) { c.K = -1 }},
		{"RandomCount", func(c *Config) { c.RandomCount = -3 }},
		{"MaxPackageSize", func(c *Config) { c.MaxPackageSize = -2 }},
		{"PsiAbove", func(c *Config) { c.Psi = 2 }},
		{"PsiBelow", func(c *Config) { c.Psi = -0.5 }},
		{"PsiNaN", func(c *Config) { c.Psi = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, 20)
			cfg.SampleCount = 20
			tc.set(&cfg)
			if _, err := NewShared(cfg); err == nil {
				t.Error("NewShared accepted the config")
			}
			e, err := New(cfg)
			if err == nil {
				_, err = e.Recommend()
				t.Fatalf("New accepted the config; first Recommend: %v", err)
			}
		})
	}
	for _, psi := range []float64{0, 0.5, 1} {
		cfg := testConfig(t, 20)
		cfg.Psi = psi
		if _, err := New(cfg); err != nil {
			t.Errorf("Psi %v rejected: %v", psi, err)
		}
	}
}

func TestRecommendShape(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	slate, err := e.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if len(slate.Recommended) != 3 {
		t.Errorf("recommended %d, want 3", len(slate.Recommended))
	}
	if len(slate.Random) != 3 {
		t.Errorf("random %d, want 3", len(slate.Random))
	}
	if len(slate.All) != len(slate.Recommended)+len(slate.Random) {
		t.Errorf("All has %d entries", len(slate.All))
	}
	// No duplicates in the slate.
	seen := map[string]bool{}
	for _, p := range slate.All {
		sig := p.Signature()
		if seen[sig] {
			t.Errorf("duplicate package %s in slate", sig)
		}
		seen[sig] = true
	}
	// Recommended packages respect φ.
	for _, r := range slate.Recommended {
		if r.Pkg.Size() > 3 || r.Pkg.Size() == 0 {
			t.Errorf("package %s violates size bounds", r.Pkg)
		}
	}
}

func TestFeedbackNarrowsSamples(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Samples(); err != nil {
		t.Fatal(err)
	}
	winner := pkgspace.New(0, 1)
	loser := pkgspace.New(2)
	if err := e.Feedback(winner, loser); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Feedback != 1 {
		t.Errorf("Feedback count = %d", st.Feedback)
	}
	if st.ConstraintsActive != 1 {
		t.Errorf("ConstraintsActive = %d", st.ConstraintsActive)
	}
	// Every sample satisfies the constraint after maintenance.
	wv, lv := pkgspace.Vector(e.FeedbackSpace(), winner), pkgspace.Vector(e.FeedbackSpace(), loser)
	samples, err := e.Samples()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		dw := feature.Dot(s.W, wv)
		dl := feature.Dot(s.W, lv)
		if dw < dl-1e-9 {
			t.Fatalf("sample %d violates recorded preference: %g < %g", i, dw, dl)
		}
	}
}

func TestClickGeneratesPairwisePreferences(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	slate, err := e.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Click(slate.All[0], slate.All); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	want := len(slate.All) - 1 - st.CyclesSkipped
	if st.Feedback != want {
		t.Errorf("Feedback = %d, want %d (σ−1 minus cycles)", st.Feedback, want)
	}
}

// TestClickRejectsChosenNotShown: a click names one of the packages it
// was shown; one that names another package records nothing.
func TestClickRejectsChosenNotShown(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	shown := []pkgspace.Package{pkgspace.New(1), pkgspace.New(2)}
	if err := e.Click(pkgspace.New(5), shown); !errors.Is(err, ErrChosenNotShown) {
		t.Fatalf("Click(unshown) = %v, want ErrChosenNotShown", err)
	}
	if st := e.Stats(); st.Feedback != 0 || e.pinned().graph.Edges() != 0 {
		t.Fatalf("unshown click recorded %d feedback, %d edges", st.Feedback, e.pinned().graph.Edges())
	}
	if err := e.Click(pkgspace.New(2, 2), shown); err != nil {
		t.Fatalf("Click(shown) = %v", err)
	}
	if got := e.pinned().graph.Edges(); got != 1 {
		t.Fatalf("shown click recorded %d edges, want 1", got)
	}
}

// TestFeedbackRejectsPackageTooLarge: preferences range over P_φ, so
// feedback or a click naming a package of more than φ items — chosen or
// merely shown — records nothing.
func TestFeedbackRejectsPackageTooLarge(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	big, small := pkgspace.New(1, 2, 3, 4, 5, 6, 7), pkgspace.New(8)
	if err := e.Feedback(big, small); !errors.Is(err, ErrPackageTooLarge) {
		t.Fatalf("Feedback(oversized winner) = %v, want ErrPackageTooLarge", err)
	}
	if err := e.Feedback(small, big); !errors.Is(err, ErrPackageTooLarge) {
		t.Fatalf("Feedback(oversized loser) = %v, want ErrPackageTooLarge", err)
	}
	if err := e.Click(big, []pkgspace.Package{small, big}); !errors.Is(err, ErrPackageTooLarge) {
		t.Fatalf("Click(oversized chosen) = %v, want ErrPackageTooLarge", err)
	}
	if err := e.Click(small, []pkgspace.Package{small, pkgspace.New(9), big}); !errors.Is(err, ErrPackageTooLarge) {
		t.Fatalf("Click(oversized shown) = %v, want ErrPackageTooLarge", err)
	}
	if st := e.Stats(); st.Feedback != 0 || e.pinned().graph.Edges() != 0 {
		t.Fatalf("oversized packages recorded %d feedback, %d edges", st.Feedback, e.pinned().graph.Edges())
	}
	if err := e.Feedback(pkgspace.New(1, 2, 3), small); err != nil {
		t.Fatalf("Feedback(φ-item winner) = %v", err)
	}
}

// TestClickIsAtomic: a click records nothing unless every shown package
// passes — an out-of-range item or an empty package last in shown rejects
// the click before any of its preferences is recorded.
func TestClickIsAtomic(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend(); err != nil {
		t.Fatal(err)
	}
	if err := e.Feedback(pkgspace.New(0), pkgspace.New(1)); err != nil {
		t.Fatal(err)
	}
	edges, st := e.pinned().graph.Edges(), e.Stats()
	for _, last := range []pkgspace.Package{pkgspace.New(2, 999), {}} {
		shown := []pkgspace.Package{pkgspace.New(3), pkgspace.New(4), pkgspace.New(5), last}
		if err := e.Click(shown[0], shown); !errors.Is(err, ErrInvalidPackage) {
			t.Fatalf("Click(last shown %v) = %v, want ErrInvalidPackage", last, err)
		}
		if got := e.pinned().graph.Edges(); got != edges {
			t.Fatalf("rejected click left %d edges, want %d", got, edges)
		}
		if got := e.Stats(); got != st {
			t.Fatalf("rejected click moved the stats:\n got %+v\nwant %+v", got, st)
		}
	}
}

// TestRepeatedFeedbackCountedOnce: Stats.Feedback counts preferences, so a
// repeat of a recorded one adds nothing to the count, the graph or the
// snapshot.
func TestRepeatedFeedbackCountedOnce(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Feedback(pkgspace.New(0, 1), pkgspace.New(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Click(pkgspace.New(0, 1), []pkgspace.Package{pkgspace.New(2), pkgspace.New(0, 1), pkgspace.New(2)}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Feedback != 1 {
		t.Errorf("Stats.Feedback %d after one preference repeated, want 1", st.Feedback)
	}
	if got := e.pinned().graph.Edges(); got != 1 {
		t.Errorf("%d edges, want 1", got)
	}
	if got := len(e.Snapshot().Preferences); got != 1 {
		t.Errorf("snapshot holds %d preferences, want 1", got)
	}
}

// TestAcceptedFeedbackRoundTrips: whatever mix of feedback and clicks an
// engine accepts — packages empty, out of range, over φ or repeated among
// the attempts — its snapshot restores, with the same preferences.
func TestAcceptedFeedbackRoundTrips(t *testing.T) {
	cfg := testConfig(t, 40)
	rng := rand.New(rand.NewSource(5))
	randPkg := func() pkgspace.Package {
		ids := make([]int, rng.Intn(cfg.MaxPackageSize+2))
		for i := range ids {
			ids[i] = rng.Intn(len(cfg.Items) + 2)
		}
		return pkgspace.New(ids...)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend(); err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for step := 0; step < 120; step++ {
		if rng.Intn(4) == 0 {
			shown := []pkgspace.Package{randPkg(), randPkg(), randPkg()}
			err = e.Click(shown[rng.Intn(len(shown))], shown)
		} else {
			err = e.Feedback(randPkg(), randPkg())
		}
		if err != nil {
			continue
		}
		accepted++
		snap := e.Snapshot()
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Restore(snap); err != nil {
			t.Fatalf("step %d: accepted feedback does not restore: %v", step, err)
		}
		if !slices.EqualFunc(r.Snapshot().Preferences, snap.Preferences, func(a, b PreferencePair) bool {
			return slices.Equal(a.Winner, b.Winner) && slices.Equal(a.Loser, b.Loser)
		}) {
			t.Fatalf("step %d: restored preferences differ", step)
		}
	}
	if accepted == 0 {
		t.Fatal("no feedback accepted")
	}
}

func TestCycleHandledGracefully(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	a, b := pkgspace.New(0), pkgspace.New(1)
	if err := e.Feedback(a, b); err != nil {
		t.Fatal(err)
	}
	// Direct contradiction.
	shown := []pkgspace.Package{a, b}
	if err := e.Click(b, shown); err != nil {
		t.Fatalf("Click with contradiction errored: %v", err)
	}
	if e.Stats().CyclesSkipped != 1 {
		t.Errorf("CyclesSkipped = %d, want 1", e.Stats().CyclesSkipped)
	}
}

func TestSemanticsSelectable(t *testing.T) {
	for _, sem := range []ranking.Semantics{ranking.EXP, ranking.TKP, ranking.MPO} {
		cfg := testConfig(t, 30)
		cfg.Semantics = sem
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		slate, err := e.Recommend()
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if len(slate.Recommended) == 0 {
			t.Fatalf("%v: empty recommendation", sem)
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() []string {
		e, err := New(testConfig(t, 40))
		if err != nil {
			t.Fatal(err)
		}
		slate, err := e.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for _, p := range slate.All {
			sigs = append(sigs, p.Signature())
		}
		return sigs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slates differ at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestRandomPackageBounds(t *testing.T) {
	e, err := New(testConfig(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := e.RandomPackage()
		if p.Size() < 1 || p.Size() > 3 {
			t.Fatalf("random package size %d", p.Size())
		}
		if err := pkgspace.ValidateIDs(e.Space(), p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTopKForWeights(t *testing.T) {
	e, err := New(testConfig(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	top, err := e.TopKForWeights([]float64{0.8, 0.1, 0.1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 {
		t.Fatalf("got %d packages", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Utility > top[i-1].Utility+1e-12 {
			t.Error("TopKForWeights not sorted")
		}
	}
	if _, err := e.TopKForWeights([]float64{1}, 2); err == nil {
		t.Error("dims mismatch accepted")
	}
}

// TestPackageVectorValidation: a package is vectorized only after its IDs
// are checked against the feedback space.
func TestPackageVectorValidation(t *testing.T) {
	e, err := New(testConfig(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Feedback(pkgspace.New(99), pkgspace.New(0)); !errors.Is(err, ErrInvalidPackage) {
		t.Errorf("Feedback over item 99 of 10 = %v, want ErrInvalidPackage", err)
	}
	if st := e.Stats(); st.Feedback != 0 {
		t.Errorf("invalid package recorded %d feedback", st.Feedback)
	}
}

func TestNoiseModelConfig(t *testing.T) {
	cfg := testConfig(t, 30)
	cfg.Psi = 0.8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Samples(); err != nil {
		t.Fatal(err)
	}
	// With noise, feedback must still be recordable and maintenance run.
	if err := e.Feedback(pkgspace.New(0, 1), pkgspace.New(2)); err != nil {
		t.Fatal(err)
	}
}

func TestSearchOptionsPassThrough(t *testing.T) {
	cfg := testConfig(t, 30)
	cfg.Search = search.Options{ExpandAll: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recommend(); err != nil {
		t.Fatal(err)
	}
}

// TestFeedbackBeforeSampling: feedback recorded before the first Recommend
// must constrain the initial pool.
func TestFeedbackBeforeSampling(t *testing.T) {
	e, err := New(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	winner, loser := pkgspace.New(0, 1), pkgspace.New(2)
	if err := e.Feedback(winner, loser); err != nil {
		t.Fatal(err)
	}
	samples, err := e.Samples()
	if err != nil {
		t.Fatal(err)
	}
	wv, lv := pkgspace.Vector(e.FeedbackSpace(), winner), pkgspace.Vector(e.FeedbackSpace(), loser)
	for i, s := range samples {
		if feature.Dot(s.W, wv) < feature.Dot(s.W, lv)-1e-9 {
			t.Fatalf("initial sample %d ignores pre-sampling feedback", i)
		}
	}
}

func TestSharedEngineEquivalentToNew(t *testing.T) {
	cfg := testConfig(t, 40)
	sh, err := NewShared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slate := func(e *Engine) []string {
		s, err := e.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for _, p := range s.All {
			sigs = append(sigs, p.Signature())
		}
		return sigs
	}
	direct, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if derived.Space() != sh.Space() || derived.sh.epoch().ix != sh.Index() {
		t.Fatal("derived engine rebuilt the shared space/index")
	}
	a, b := slate(direct), slate(derived)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Shared.NewEngine(0) diverges from New at %d: %s vs %s", i, a[i], b[i])
		}
	}
	seeded, err := sh.NewEngine(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c := slate(seeded)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("NewEngine(cfg.Seed) diverges from New at %d", i)
		}
	}
}

func TestSharedEnginesAreIndependent(t *testing.T) {
	sh, err := NewShared(testConfig(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sh.NewEngine(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sh.NewEngine(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recommend(); err != nil {
		t.Fatal(err)
	}
	if err := a.Feedback(pkgspace.New(0), pkgspace.New(1)); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Feedback; got != 0 {
		t.Fatalf("feedback leaked across engines: %d", got)
	}
	// The reverse preference is a cycle in a but fresh in b.
	if err := b.Feedback(pkgspace.New(1), pkgspace.New(0)); err != nil {
		t.Fatalf("independent engine rejected fresh feedback: %v", err)
	}
	if a.Stats().Feedback != 1 || b.Stats().Feedback != 1 {
		t.Fatalf("stats entangled: a=%d b=%d", a.Stats().Feedback, b.Stats().Feedback)
	}
}

func TestSharedValidation(t *testing.T) {
	if _, err := NewShared(Config{}); err == nil {
		t.Error("NewShared accepted missing profile")
	}
	cfg := testConfig(t, 20)
	cfg.Prior = gaussmix.Gaussian([]float64{0, 0}, 0.5) // 2 dims vs 3-dim profile
	if _, err := NewShared(cfg); err == nil {
		t.Error("NewShared accepted prior/profile dim mismatch")
	}
}
