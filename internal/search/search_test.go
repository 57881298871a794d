package search

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
)

func paperSpace(t *testing.T, maxSize int) *feature.Space {
	t.Helper()
	items := []feature.Item{
		{ID: 0, Values: []float64{0.6, 0.2}},
		{ID: 1, Values: []float64{0.4, 0.4}},
		{ID: 2, Values: []float64{0.2, 0.4}},
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg), maxSize)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func mustUtility(t *testing.T, sp *feature.Space, w ...float64) *feature.Utility {
	t.Helper()
	u, err := feature.NewUtility(sp.Profile, w)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestPaperExampleTopK: under w1 = (0.5, 0.1), the best packages are
// p4 = {t1,t2} (0.575) and p6 = {t1,t3} (0.475), per Figure 2.
func TestPaperExampleTopK(t *testing.T) {
	sp := paperSpace(t, 2)
	ix := NewIndex(sp)
	res, err := ix.TopK(mustUtility(t, sp, 0.5, 0.1), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 2 {
		t.Fatalf("got %d packages", len(res.Packages))
	}
	if res.Packages[0].Pkg.Signature() != "0|1" {
		t.Errorf("top-1 = %s, want {0,1}", res.Packages[0].Pkg)
	}
	if res.Packages[1].Pkg.Signature() != "0|2" {
		t.Errorf("top-2 = %s, want {0,2}", res.Packages[1].Pkg)
	}
	if math.Abs(res.Packages[0].Utility-0.575) > 1e-9 {
		t.Errorf("top utility = %g, want 0.575", res.Packages[0].Utility)
	}
}

// TestPaperExampleAllWeights runs all three weight vectors of Figure 2 and
// checks the per-w top-2 lists match Figure 2(d): w1→(p4,p6), w2→(p5,p2),
// w3→(p4,p5).
func TestPaperExampleAllWeights(t *testing.T) {
	sp := paperSpace(t, 2)
	ix := NewIndex(sp)
	cases := []struct {
		w    []float64
		want []string
	}{
		{[]float64{0.5, 0.1}, []string{"0|1", "0|2"}},
		{[]float64{0.1, 0.5}, []string{"1|2", "1"}},
		{[]float64{0.1, 0.1}, []string{"0|1", "1|2"}},
	}
	for i, tc := range cases {
		res, err := ix.TopK(mustUtility(t, sp, tc.w...), Options{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range tc.want {
			if got := res.Packages[j].Pkg.Signature(); got != want {
				t.Errorf("w%d top[%d] = %s, want %s", i+1, j, got, want)
			}
		}
	}
}

func checkAgainstBruteForce(t *testing.T, sp *feature.Space, w []float64, k int, opts Options) bool {
	t.Helper()
	u, err := feature.NewUtility(sp.Profile, w)
	if err != nil {
		t.Fatal(err)
	}
	opts.K = k
	ix := NewIndex(sp)
	res, err := ix.TopK(u, opts)
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

// TestExactOnMonotoneProfiles: for set-monotone utilities (sum/max with
// positive weights, min with negative), the paper's pruning is exact.
func TestExactOnMonotoneProfiles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		items := make([]feature.Item, n)
		for i := range items {
			items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
		}
		p := feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggMin)
		maxSize := 1 + rng.Intn(3)
		sp, err := feature.NewSpace(items, p, maxSize)
		if err != nil {
			return false
		}
		// Monotone weights: sum ≥ 0, max ≥ 0, min ≤ 0.
		w := []float64{rng.Float64(), rng.Float64(), -rng.Float64()}
		k := 1 + rng.Intn(4)
		return checkAgainstBruteForce(t, sp, w, k, Options{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestExpandAllExactOnArbitraryProfiles: with ExpandAll the search matches
// brute force on arbitrary profiles and weights, including avg and negative
// weights (the cases where the paper's line-3 pruning is heuristic).
func TestExpandAllExactOnArbitraryProfiles(t *testing.T) {
	aggs := []feature.Agg{feature.AggMin, feature.AggMax, feature.AggSum, feature.AggAvg}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(7)
		d := 1 + rng.Intn(3)
		entries := make([]feature.Agg, d)
		for i := range entries {
			entries[i] = aggs[rng.Intn(len(aggs))]
		}
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, d)
			for j := range vals {
				vals[j] = rng.Float64()
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		maxSize := 1 + rng.Intn(3)
		sp, err := feature.NewSpace(items, feature.SimpleProfile(entries...), maxSize)
		if err != nil {
			return false
		}
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64()*2 - 1
		}
		k := 1 + rng.Intn(3)
		return checkAgainstBruteForce(t, sp, w, k, Options{ExpandAll: true})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestExpandAllExactWithNulls exercises the null-aware bound: items may
// miss features, and the upper bound must stay sound.
func TestExpandAllExactWithNulls(t *testing.T) {
	aggs := []feature.Agg{feature.AggMin, feature.AggMax, feature.AggSum, feature.AggAvg}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		d := 1 + rng.Intn(3)
		entries := make([]feature.Agg, d)
		for i := range entries {
			entries[i] = aggs[rng.Intn(len(aggs))]
		}
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, d)
			for j := range vals {
				if rng.Float64() < 0.25 {
					vals[j] = feature.Null
				} else {
					vals[j] = rng.Float64()
				}
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		maxSize := 1 + rng.Intn(3)
		sp, err := feature.NewSpace(items, feature.SimpleProfile(entries...), maxSize)
		if err != nil {
			return false
		}
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64()*2 - 1
		}
		return checkAgainstBruteForce(t, sp, w, 1+rng.Intn(3), Options{ExpandAll: true})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestBoundPruneAblation: bound pruning changes work, never results — the
// pruned ExpandAll search matches brute force on a sum/avg profile under
// mixed-sign weights.
func TestBoundPruneAblation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		items := make([]feature.Item, n)
		for i := range items {
			items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg), 3)
		if err != nil {
			return false
		}
		w := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		return checkAgainstBruteForce(t, sp, w, 3, Options{ExpandAll: true})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestEarlyTermination: on a large item set with a monotone utility, the
// search must stop after accessing a small fraction of the items (the §4
// rationale for sorted access).
func TestEarlyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 20000
	items := make([]feature.Item, n)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggMax), 4)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	res, err := ix.TopK(mustUtility(t, sp, 0.7, 0.3), Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 5 {
		t.Fatalf("got %d packages", len(res.Packages))
	}
	if res.Accessed > n/100 {
		t.Errorf("accessed %d of %d items; early termination not effective", res.Accessed, n)
	}
}

func TestSingletonSpace(t *testing.T) {
	items := []feature.Item{{ID: 0, Values: []float64{0.5}}}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum), 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	res, err := ix.TopK(mustUtility(t, sp, 1), Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 || res.Packages[0].Pkg.Signature() != "0" {
		t.Fatalf("singleton result wrong: %v", res.Packages)
	}
}

func TestKValidation(t *testing.T) {
	sp := paperSpace(t, 2)
	ix := NewIndex(sp)
	if _, err := ix.TopK(mustUtility(t, sp, 1, 0), Options{}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := ix.TopK(&feature.Utility{W: []float64{1}}, Options{K: 1}); err == nil {
		t.Error("dims mismatch accepted")
	}
}

func TestZeroWeightsDegenerate(t *testing.T) {
	sp := paperSpace(t, 2)
	ix := NewIndex(sp)
	res, err := ix.TopK(mustUtility(t, sp, 0, 0), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 3 {
		t.Fatalf("degenerate returned %d packages", len(res.Packages))
	}
	// Deterministic order: {0}, {0,1}, {0,2}.
	want := []string{"0", "0|1", "0|2"}
	for i, w := range want {
		if got := res.Packages[i].Pkg.Signature(); got != w {
			t.Errorf("degenerate[%d] = %s, want %s", i, got, w)
		}
	}
}

// TestNegativeWeights: with both weights negative the best package is the
// single cheapest item (smallest sum contribution, smallest avg).
func TestNegativeWeights(t *testing.T) {
	sp := paperSpace(t, 2)
	ix := NewIndex(sp)
	res, err := ix.TopK(mustUtility(t, sp, -0.5, -0.5), Options{K: 1, ExpandAll: true})
	if err != nil {
		t.Fatal(err)
	}
	u := mustUtility(t, sp, -0.5, -0.5)
	want := pkgspace.BruteForceTopK(sp, u, 1)
	if math.Abs(res.Packages[0].Utility-want[0].Utility) > 1e-9 {
		t.Errorf("negative-weight top = %s (%.4f), want %s (%.4f)",
			res.Packages[0].Pkg, res.Packages[0].Utility, want[0].Pkg, want[0].Utility)
	}
}

func TestCandidatePredicate(t *testing.T) {
	sp := paperSpace(t, 2)
	ix := NewIndex(sp)
	// Only size-2 packages are acceptable.
	res, err := ix.TopK(mustUtility(t, sp, 0.5, 0.1), Options{
		K:         2,
		Candidate: func(_ *feature.Space, p pkgspace.Package) bool { return p.Size() == 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range res.Packages {
		if sc.Pkg.Size() != 2 {
			t.Errorf("package %s violates candidate predicate", sc.Pkg)
		}
	}
	if res.Packages[0].Pkg.Signature() != "0|1" {
		t.Errorf("constrained top = %s, want {0,1}", res.Packages[0].Pkg)
	}
}

func TestMaxQueueTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 40
	items := make([]feature.Item, n)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggSum), 6)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	res, err := ix.TopK(mustUtility(t, sp, 1, 1), Options{K: 3, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("MaxQueue=2 run not flagged Truncated")
	}
	if len(res.Packages) != 3 {
		t.Errorf("truncated run returned %d packages", len(res.Packages))
	}
}

// TestTruncateThresholdSelectors: truncate reads its threshold off lowKth for
// small overflows and selectKth for large ones; both must return the order
// statistic a full sort gives, on inputs with duplicates, leaving the
// multiset intact (lowKth: the slice itself).
func TestTruncateThresholdSelectors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, distinct int }{
		{1, 1}, {2, 1}, {9, 3}, {10, 1000}, {129, 4}, {131, 40}, {136, 1000}, {257, 7}, {400, 1000},
	} {
		for trial := 0; trial < 50; trial++ {
			xs := make([]float64, tc.n)
			for i := range xs {
				xs[i] = float64(rng.Intn(tc.distinct)) / 8
			}
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			for k := 0; k < tc.n; k += 1 + k/12 {
				if k <= lowKthMax {
					in := slices.Clone(xs)
					if got := lowKth(in, k); got != sorted[k] || !slices.Equal(in, xs) {
						t.Fatalf("lowKth(n=%d, k=%d) = %v (input kept: %t), sort gives %v", tc.n, k, got, slices.Equal(in, xs), sorted[k])
					}
				}
				in := slices.Clone(xs)
				got := selectKth(in, k)
				slices.Sort(in)
				if got != sorted[k] || !slices.Equal(in, sorted) {
					t.Fatalf("selectKth(n=%d, k=%d) = %v, sort gives %v", tc.n, k, got, sorted[k])
				}
			}
		}
	}
}

// TestOrphanItemsReachable: items null on every profiled feature can still
// appear (only) through ExpandAll + avg dilution. Here a negative-weight
// avg means adding a null item strictly helps.
func TestOrphanItemsReachable(t *testing.T) {
	items := []feature.Item{
		{ID: 0, Values: []float64{0.9, 0.8}},
		{ID: 1, Values: []float64{feature.Null, feature.Null}},
	}
	p := feature.SimpleProfile(feature.AggSum, feature.AggAvg)
	sp, err := feature.NewSpace(items, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	// sum weight positive (want item 0), avg weight negative (null item
	// dilutes the avg denominator → helps).
	u := mustUtility(t, sp, 0.6, -0.8)
	res, err := ix.TopK(u, Options{K: 1, ExpandAll: true})
	if err != nil {
		t.Fatal(err)
	}
	want := pkgspace.BruteForceTopK(sp, u, 1)
	if res.Packages[0].Pkg.Signature() != want[0].Pkg.Signature() {
		t.Errorf("top = %s, want %s (orphan dilution)", res.Packages[0].Pkg, want[0].Pkg)
	}
	if want[0].Pkg.Signature() != "0|1" {
		t.Fatalf("test premise broken: brute force wants %s", want[0].Pkg)
	}
}

// TestPaperPruningNeverBeatsBruteForce: even without ExpandAll, returned
// utilities can never exceed the true optimum (soundness; completeness is
// the part the paper trades away).
func TestPaperPruningNeverBeatsBruteForce(t *testing.T) {
	aggs := []feature.Agg{feature.AggMin, feature.AggMax, feature.AggSum, feature.AggAvg}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		d := 1 + rng.Intn(3)
		entries := make([]feature.Agg, d)
		for i := range entries {
			entries[i] = aggs[rng.Intn(len(aggs))]
		}
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, d)
			for j := range vals {
				vals[j] = rng.Float64()
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(entries...), 1+rng.Intn(3))
		if err != nil {
			return false
		}
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64()*2 - 1
		}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			return false
		}
		ix := NewIndex(sp)
		res, err := ix.TopK(u, Options{K: 2})
		if err != nil {
			return false
		}
		want := pkgspace.BruteForceTopK(sp, u, 1)
		if len(res.Packages) > 0 && len(want) > 0 {
			if res.Packages[0].Utility > want[0].Utility+1e-9 {
				return false // impossible: claimed better than optimum
			}
			// Every returned package's utility must be its true utility.
			for _, sc := range res.Packages {
				truth := u.Score(pkgspace.Vector(sp, sc.Pkg))
				if math.Abs(truth-sc.Utility) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestIndexReuse: one index must serve many weight vectors (the ranking
// layer's usage pattern).
func TestIndexReuse(t *testing.T) {
	sp := paperSpace(t, 2)
	ix := NewIndex(sp)
	for _, w := range [][]float64{{0.5, 0.1}, {0.1, 0.5}, {-0.3, 0.9}, {0.1, 0.1}} {
		u := mustUtility(t, sp, w...)
		res, err := ix.TopK(u, Options{K: 2, ExpandAll: true})
		if err != nil {
			t.Fatal(err)
		}
		want := pkgspace.BruteForceTopK(sp, u, 2)
		for i := range want {
			if math.Abs(res.Packages[i].Utility-want[i].Utility) > 1e-9 {
				t.Errorf("w=%v rank %d: %g vs %g", w, i, res.Packages[i].Utility, want[i].Utility)
			}
		}
	}
}

// TestMaxAccessedBudget: a depth budget stops the scan early, flags
// truncation, and still returns valid (if possibly suboptimal) packages.
func TestMaxAccessedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 5000
	items := make([]feature.Item, n)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg), 4)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	u := mustUtility(t, sp, 0.5, -0.7) // conflicting: bound closes slowly
	res, err := ix.TopK(u, Options{K: 3, MaxAccessed: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accessed > 40 {
		t.Errorf("accessed %d > budget 40", res.Accessed)
	}
	if len(res.Packages) == 0 {
		t.Fatal("budgeted search returned nothing")
	}
	// Utilities reported must be the true utilities of the packages.
	for _, sc := range res.Packages {
		truth := u.Score(pkgspace.Vector(sp, sc.Pkg))
		if math.Abs(truth-sc.Utility) > 1e-9 {
			t.Errorf("package %s reported %g, true %g", sc.Pkg, sc.Utility, truth)
		}
	}
}

// TestMaxAccessedBudgetCoversOrphanDrain: orphans (items null on every
// profile feature) are drawn after the sorted lists, and those draws count
// against the same budget — the drain neither starts past it nor runs
// through it, and stopping it short flags truncation.
func TestMaxAccessedBudgetCoversOrphanDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	items := make([]feature.Item, 400)
	for i := range items {
		v := feature.Null
		if i%2 == 0 {
			v = rng.Float64()
		}
		items[i] = feature.Item{ID: i, Values: []float64{v}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggAvg), 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(sp)
	u := mustUtility(t, sp, -0.5) // null members dilute the avg: orphans matter
	for _, expandAll := range []bool{false, true} {
		res, err := ix.TopK(u, Options{K: 3, MaxAccessed: 10, ExpandAll: expandAll})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accessed > 10 {
			t.Errorf("ExpandAll=%t: accessed %d > budget 10", expandAll, res.Accessed)
		}
		if !res.Truncated {
			t.Errorf("ExpandAll=%t: budget stopped the search but Truncated is unset", expandAll)
		}
	}
}

// TestPredicateMatchesBruteForcePaperMode: a run with a §7 predicate
// returns the brute-force top-k of the packages passing it, in paper mode
// (no ExpandAll) as in ExpandAll mode, for weights of both signs on sum,
// avg, max and min profiles. Predicates that are not anti-monotone ("at
// least two odd items") need packages grown with items that lower their
// utility, which line 3 alone never grows.
func TestPredicateMatchesBruteForcePaperMode(t *testing.T) {
	odd := func(it feature.Item) bool { return it.ID%2 == 1 }
	preds := []struct {
		name string
		pred pkgspace.Predicate
	}{
		{"two-odd", pkgspace.MinCount(2, odd)},
		{"three-odd", pkgspace.MinCount(3, odd)},
		{"size-3", func(_ *feature.Space, p pkgspace.Package) bool { return p.Size() == 3 }},
	}
	profiles := [][]feature.Agg{
		{feature.AggSum, feature.AggAvg},
		{feature.AggSum, feature.AggMax, feature.AggMin},
		{feature.AggAvg, feature.AggSum, feature.AggAvg},
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 60; trial++ {
		aggs := profiles[trial%len(profiles)]
		n := 8 + rng.Intn(7)
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, len(aggs))
			for j := range vals {
				vals[j] = rng.Float64()
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(aggs...), 4)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, len(aggs))
		for j := range w {
			w[j] = rng.Float64()*2 - 1
		}
		u := mustUtility(t, sp, w...)
		ix := NewIndex(sp)
		for _, pr := range preds {
			want := pkgspace.BruteForceTopK(sp, u, 3, pr.pred)
			for _, expandAll := range []bool{false, true} {
				res, err := ix.TopK(u, Options{K: 3, MaxQueue: -1, ExpandAll: expandAll, Candidate: pr.pred})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Packages) != len(want) {
					t.Fatalf("trial %d %s (ExpandAll %v, w %.3f): %d packages, brute force %d",
						trial, pr.name, expandAll, w, len(res.Packages), len(want))
				}
				for i := range want {
					if got := res.Packages[i]; math.Abs(got.Utility-want[i].Utility) > 1e-9 || !pr.pred(sp, got.Pkg) {
						t.Fatalf("trial %d %s (ExpandAll %v, w %.3f) rank %d: %s u=%.6f, brute force %s u=%.6f",
							trial, pr.name, expandAll, w, i, got.Pkg, got.Utility, want[i].Pkg, want[i].Utility)
					}
				}
			}
		}
	}
}
