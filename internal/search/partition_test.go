package search

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/pkgspace"
)

// wideBeam is a Q+ cap no trial of the small-space suites reaches: the run
// is beamed, so it partitions, yet nothing truncates it.
const wideBeam = 1 << 20

// TestPartitionExact: under a beam that truncates on neither side, the
// sketch-refine path returns the unpartitioned search's utilities, rank by
// rank, and every one of them is the utility of the package it comes with —
// for every agg mix, weight signs that make the utility monotone (where
// partitioning engages) and ones that do not (where it must gate itself
// off), nulls, ties, and k up to the catalogue size. The partition is
// materialized (EnsurePartition) so small random spaces engage it;
// dominance runs both on and off. Utilities, not ids: bound pruning is
// strict, so which of several packages tying at the k-th a search keeps is
// its own.
//
// The trials come from a fixed generator seed, so the suite catches the same
// things on every run; seeds that once failed it are named cases.
func TestPartitionExact(t *testing.T) {
	closedSome := 0
	f := func(seed int64) bool {
		ix, u, k, ok := partitionExactCase(t, seed)
		if !ok {
			return false
		}
		for _, disableDom := range []bool{false, true} {
			opts := Options{K: k, MaxQueue: wideBeam, ExpandAll: true, DisableDominancePrune: disableDom}
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
			if part.Truncated || plain.Truncated {
				t.Log("the wide beam truncated")
				return false
			}
			if plain.SketchSkipped != 0 || plain.RefineClustersOpened != 0 {
				t.Log("disabled run reported partition work")
				return false
			}
			if !sameUtilities(t, part.Packages, plain.Packages, "partition-exact") || !scoresMatch(t, ix.Space(), u, part) {
				return false
			}
			if part.SketchSkipped > 0 {
				closedSome++
			}
		}
		return true
	}
	// A paper-mode run is incomplete: line 3 never creates the utility-0 ties
	// the sketch over the representatives finds, so its own k-th ends below
	// the sketch floor, which dropped packages the unpartitioned run returns
	// while uncapped paper-mode runs still partitioned. No uncapped run does
	// now.
	t.Run("paper-mode-kth-below-sketch-floor", func(t *testing.T) {
		const seed = 6804449326465067473
		if !f(seed) {
			t.Errorf("seed %d diverged", seed)
		}
		ix, u, k, ok := partitionExactCase(t, seed)
		if !ok {
			t.Fatal("no instance")
		}
		opts := Options{K: k, MaxQueue: -1}
		part, err := ix.TopK(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.DisablePartition = true
		plain, err := ix.TopK(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		if part.RefineClustersOpened != 0 || !assertSameResult(t, part, plain, "paper-mode") {
			t.Errorf("the uncapped paper-mode run partitioned: %+v, unpartitioned %+v", part, plain)
		}
	})
	// A -0 weight on the only dimension where items 0–2 are non-null leaves
	// them on no active list and outside Index.orphans (computed per profile,
	// not per utility): until exec drained them like orphans, neither search
	// reached six utility-0 packages brute force returns, and the two broke
	// the tie at rank 6 differently.
	t.Run("zero-weight-only-items-unreachable", func(t *testing.T) {
		const seed = 9056432317306788815
		if !f(seed) {
			t.Errorf("seed %d diverged", seed)
		}
		matchesBruteForce(t, seed, Options{MaxQueue: -1, ExpandAll: true})
	})
	// The only cluster's representative, item 0, is null on the only
	// (weighted) feature, so the sketch index had no list to draw from and
	// its degenerate path listed packages at a utility of 0 that no search
	// scored: the floor L = 0 closed clusters, and {3} {4} {6} {7} reached
	// the slate at 0 against true utilities of −0.29 / −0.53 / −0.16 / −0.21.
	t.Run("all-null-sketch", func(t *testing.T) {
		const seed = 5955754742858096595
		if !f(seed) {
			t.Errorf("seed %d diverged", seed)
		}
		matchesBruteForce(t, seed, Options{MaxQueue: wideBeam, ExpandAll: true})
	})
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if closedSome == 0 {
		t.Error("no refine closed a cluster across all trials — the suite is not exercising the sketch floor")
	}
	t.Logf("%d runs closed a cluster", closedSome)
}

// sameUtilities compares two result lists' utilities rank by rank, to
// rounding: different traces may sum a package's values in different orders.
func sameUtilities(t *testing.T, got, want []pkgspace.Scored, label string) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Logf("%s: %d packages, want %d", label, len(got), len(want))
		return false
	}
	for i := range want {
		if math.Abs(got[i].Utility-want[i].Utility) > 1e-9 {
			t.Logf("%s: rank %d: got %s u=%v, want %s u=%v", label, i, got[i].Pkg, got[i].Utility, want[i].Pkg, want[i].Utility)
			return false
		}
	}
	return true
}

// scoresMatch checks every returned utility against its package's items,
// scored afresh.
func scoresMatch(t *testing.T, sp *feature.Space, u *feature.Utility, res Result) bool {
	t.Helper()
	for i, s := range res.Packages {
		st := feature.NewState(sp)
		for _, id := range s.Pkg.IDs {
			st.Add(sp.Items[id])
		}
		if got := u.ScoreState(st); math.Abs(got-s.Utility) > 1e-9 {
			t.Logf("rank %d: %s returned at u=%v, scores %v", i, s.Pkg, s.Utility, got)
			return false
		}
	}
	return true
}

// matchesBruteForce runs seed's TestPartitionExact instance under opts and
// compares it with pkgspace.BruteForceTopK, utilities rank by rank.
func matchesBruteForce(t *testing.T, seed int64, opts Options) {
	t.Helper()
	ix, u, k, ok := partitionExactCase(t, seed)
	if !ok {
		t.Fatal("no instance")
	}
	opts.K = k
	res, err := ix.TopK(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameUtilities(t, res.Packages, pkgspace.BruteForceTopK(ix.Space(), u, k), "brute-force") {
		t.Errorf("seed %d: %+v differs from brute force", seed, opts)
	}
}

// partitionExactCase draws one TestPartitionExact instance from seed: a small
// random space under a random agg mix (nulls, ties, zero and wrong-sign
// weights included), its utility, k, and an index with the partition
// materialized.
func partitionExactCase(t *testing.T, seed int64) (ix *Index, u *feature.Utility, k int, ok bool) {
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg, feature.AggNull}
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
		return nil, nil, 0, false
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
	u, err = feature.NewUtility(p, w)
	if err != nil {
		t.Log(err)
		return nil, nil, 0, false
	}
	k = 1 + rng.Intn(n)
	ix = NewIndex(sp)
	ix.EnsurePartition(1 + rng.Intn(6))
	return ix, u, k, true
}

// TestPartitionMatchesBruteForce: the partitioned search under a beam that
// never truncates matches the brute-force oracle directly on monotone
// profiles.
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
		ix.EnsurePartition(1 + rng.Intn(4))
		res, err := ix.TopK(u, Options{K: k, MaxQueue: wideBeam, ExpandAll: true})
		if err != nil {
			t.Fatal(err)
		}
		return sameUtilities(t, res.Packages, pkgspace.BruteForceTopK(sp, u, k), "brute-force")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPartitionGatesOff: over a materialized partition, every run the rule
// excludes — a weighted avg (non-monotone), an uncapped unbudgeted run in
// either mode, a predicate, DisablePartition — searches unpartitioned: no
// partition counter moves and the slate is the unpartitioned search's. The
// beamed monotone row is the control that does engage.
func TestPartitionGatesOff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := make([]feature.Item, 40)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggMax, feature.AggAvg), 3)
	if err != nil {
		t.Fatal(err)
	}
	var stats PartitionStats
	ix := NewIndex(sp)
	ix.ConfigurePartition(&stats)
	ix.EnsurePartition(4)
	mono, avg := []float64{1, 0.5, 0}, []float64{1, 0.5, 0.3}
	pass := pkgspace.Predicate(func(*feature.Space, pkgspace.Package) bool { return true })
	for _, row := range []struct {
		name    string
		w       []float64
		opts    Options
		engaged bool
	}{
		{"beamed", mono, Options{K: 5}, true},
		{"weighted-avg", avg, Options{K: 5}, false},
		{"uncapped-paper", mono, Options{K: 5, MaxQueue: -1}, false},
		{"uncapped-expandall", mono, Options{K: 5, MaxQueue: -1, ExpandAll: true}, false},
		{"candidate", mono, Options{K: 5, Candidate: pass}, false},
		{"disabled", mono, Options{K: 5, DisablePartition: true}, false},
	} {
		u, err := feature.NewUtility(sp.Profile, row.w)
		if err != nil {
			t.Fatal(err)
		}
		before := stats.Searches.Load()
		res, err := ix.TopK(u, row.opts)
		if err != nil {
			t.Fatal(err)
		}
		moved := stats.Searches.Load() - before
		if row.engaged {
			if moved != 1 || res.RefineClustersOpened == 0 {
				t.Errorf("%s: did not partition (searches +%d, %+v)", row.name, moved, res)
			}
			continue
		}
		if moved != 0 || res.SketchSkipped != 0 || res.RefineClustersOpened != 0 {
			t.Errorf("%s: partitioned (searches +%d, %+v)", row.name, moved, res)
		}
		opts := row.opts
		opts.DisablePartition = true
		plain, err := ix.TopK(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !assertSameResult(t, res, plain, row.name) {
			t.Errorf("%s: the slate differs from the unpartitioned search", row.name)
		}
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

// TestPartitionCacheKey: every option is part of the cache key. Each field
// of Options set alone to a non-zero value (a partitioned beam and a plain
// one, say) must key apart from the zero options and from every other
// single-field change; a func field must make the options uncacheable. A
// field added without being folded into CacheKey fails here instead of
// serving stale cache hits.
func TestPartitionCacheKey(t *testing.T) {
	zero, ok := Options{}.CacheKey()
	if !ok {
		t.Fatal("zero options uncacheable")
	}
	keys := map[string]string{zero: "zero options"}
	pred := pkgspace.Predicate(func(*feature.Space, pkgspace.Package) bool { return true })
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		var o Options
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Func:
			f.Set(reflect.ValueOf(pred))
			if _, ok := o.CacheKey(); ok {
				t.Errorf("%s set: options with a func are cacheable", typ.Field(i).Name)
			}
			continue
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		default:
			t.Fatalf("%s: no non-zero value for kind %s", typ.Field(i).Name, f.Kind())
		}
		key, ok := o.CacheKey()
		if !ok {
			t.Errorf("%s set: options uncacheable", typ.Field(i).Name)
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("%s set: cache key %q collides with %s", typ.Field(i).Name, key, prev)
		}
		keys[key] = typ.Field(i).Name + " set"
	}
}

// TestPartitionMaskedWalkMatchesSubsetIndex: the beamed refine walks the
// index's own lists through the opened-cluster mask instead of searching a
// filtered copy, and must run the filtered copy's trace bit for bit. The
// reference is that copy — subsetIndex over the open clusters' items with
// the global head set injected, the path every beamed refine took before —
// and the comparison covers packages, utility bits and every work counter,
// over random spaces (agg mixes, light and heavy nulls, rows null
// everywhere → orphans, tie-heavy values, every weight sign the monotone
// gate admits, φ 1…4), random masks and beamed, budgeted and uncapped
// options. The masks aim at the three places a masked walk can diverge:
// closing a list's top entries (τ must start at the first open entry, and
// headBound's frozen τ with it), leaving a list no open entry (it must be
// absent, not exhausted) and keeping so few items that lists run out (a
// cursor must be done when its last open entry is drawn, not at the
// physical end — the general pad path engages from there).
func TestPartitionMaskedWalkMatchesSubsetIndex(t *testing.T) {
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggNull}
	var hit struct{ closedTop, absent, ranOut, closedOrphan, domPruned, truncated, budget int }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := rng.Intn(3) // 0 beamed, 1 MaxAccessed binding, 2 uncapped
		n, maxSize := 4+rng.Intn(60), 1+rng.Intn(4)
		if mode == 2 { // exhaustive: keep the package space small
			n, maxSize = 4+rng.Intn(20), 1+rng.Intn(3)
		}
		m := 1 + rng.Intn(4)
		dims := make([]feature.Agg, m)
		for d := range dims {
			dims[d] = aggs[rng.Intn(len(aggs))]
		}
		nulls := rng.Intn(3) // 0 none, 1 light, 2 heavy plus all-null rows
		items := make([]feature.Item, n)
		for i := range items {
			vals := make([]float64, m)
			allNull := nulls == 2 && rng.Intn(6) == 0
			for j := range vals {
				vals[j] = pruneValue(rng, nulls > 0)
				if allNull || (nulls == 2 && rng.Intn(3) == 0) {
					vals[j] = feature.Null
				}
			}
			items[i] = feature.Item{ID: i, Values: vals}
		}
		prof := feature.SimpleProfile(dims...)
		sp, err := feature.NewSpace(items, prof, maxSize)
		if err != nil {
			t.Log(err)
			return false
		}
		w := make([]float64, m)
		for d := range w {
			if rng.Intn(5) == 0 {
				continue
			}
			w[d] = 0.05 + rng.Float64()
			if dims[d] == feature.AggMin {
				w[d] = -w[d]
			}
		}
		u, err := feature.NewUtility(prof, w)
		if err != nil {
			t.Log(err)
			return false
		}
		ix := NewIndex(sp)
		p := partition.Build(sp, 1+rng.Intn(8))

		// first returns the list's entry nearest the end the run draws from.
		first := func(d int) int32 {
			if w[d] > 0 {
				return ix.asc[d][len(ix.asc[d])-1]
			}
			return ix.asc[d][0]
		}
		var active []int // dimensions the run opens a cursor on
		for d := range w {
			if w[d] != 0 && len(ix.asc[d]) > 0 {
				active = append(active, d)
			}
		}
		mask := make([]bool, p.K)
		for c := range mask {
			mask[c] = true
		}
		switch kind := rng.Intn(6); {
		case kind == 1: // one cluster
			clear(mask)
			mask[rng.Intn(p.K)] = true
		case kind == 2: // close every list's top entry
			for _, d := range active {
				mask[p.Assign[first(d)]] = false
			}
		case kind == 3 && len(active) > 0: // leave one list no open entry
			for _, id := range ix.asc[active[rng.Intn(len(active))]] {
				mask[p.Assign[id]] = false
			}
		case kind == 4: // random half
			for c := range mask {
				mask[c] = rng.Intn(2) == 0
			}
		case kind == 5: // the two smallest clusters: lists run out
			order := make([]int, p.K)
			for c := range order {
				order[c] = c
			}
			slices.SortStableFunc(order, func(a, b int) int { return len(p.Members[a]) - len(p.Members[b]) })
			clear(mask)
			for _, c := range order[:min(2, p.K)] {
				mask[c] = true
			}
		}
		keep := make([]bool, n)
		kept := 0
		for id, c := range p.Assign {
			if mask[c] {
				keep[id] = true
				kept++
			}
		}

		opts := Options{
			K:                     1 + rng.Intn(6),
			ExpandAll:             rng.Intn(3) == 0,
			DisableDominancePrune: rng.Intn(3) == 0,
		}
		switch mode {
		case 0:
			opts.MaxQueue = 2 + rng.Intn(8)
		case 1:
			opts.MaxQueue = 2 + rng.Intn(30)
			opts.MaxAccessed = 1 + rng.Intn(max(kept, 1))
		case 2:
			opts.MaxQueue = -1
		}
		// Any float serves as the floor; a real package's utility sits
		// where it prunes some of the trace and not all of it.
		floorL := negInf
		if rng.Intn(2) == 0 {
			st := feature.NewState(sp)
			for i := 0; i <= rng.Intn(maxSize); i++ {
				st.Add(sp.Items[rng.Intn(n)])
			}
			floorL = u.ScoreState(st)
		}

		sub := ix.subsetIndex(keep)
		if !opts.DisableDominancePrune {
			sub.SetHeads(ix.Heads())
		}
		want, err := sub.topKRun(u, opts, &partCtx{floorL: floorL})
		if err != nil {
			t.Log(err)
			return false
		}
		got, err := ix.topKRun(u, opts, &partCtx{p: p, floorL: floorL, mask: mask})
		if err != nil {
			t.Log(err)
			return false
		}
		if !assertSameResult(t, got, want, "masked-walk") {
			return false
		}
		if got.Accessed != want.Accessed || got.Created != want.Created ||
			got.Truncated != want.Truncated || got.DomPruned != want.DomPruned {
			t.Logf("masked-walk counters: got accessed=%d created=%d truncated=%t dom=%d, want accessed=%d created=%d truncated=%t dom=%d",
				got.Accessed, got.Created, got.Truncated, got.DomPruned,
				want.Accessed, want.Created, want.Truncated, want.DomPruned)
			return false
		}

		// Which of the hard cases did this trial reach?
		listed := 0 // open items some cursor can draw
		seen := make([]bool, n)
		for _, d := range active {
			anyOpen := false
			for _, id := range ix.asc[d] {
				if keep[id] {
					anyOpen = true
					if !seen[id] {
						seen[id] = true
						listed++
					}
				}
			}
			switch {
			case !anyOpen && kept > 0:
				hit.absent++
			case anyOpen && !keep[first(d)]:
				hit.closedTop++
			}
		}
		if kept < n && listed > 0 && got.Accessed >= listed {
			hit.ranOut++
		}
		for _, o := range ix.orphans {
			if !keep[o] && kept > 0 {
				hit.closedOrphan++
				break
			}
		}
		if got.DomPruned > 0 {
			hit.domPruned++
		}
		if got.Truncated {
			hit.truncated++
		}
		if mode == 1 && got.Accessed == opts.MaxAccessed {
			hit.budget++
		}
		return true
	}
	// A fixed generator seed: the trials, and so what the suite catches,
	// are the same on every run.
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if hit.closedTop == 0 || hit.absent == 0 || hit.ranOut == 0 || hit.closedOrphan == 0 ||
		hit.domPruned == 0 || hit.truncated == 0 || hit.budget == 0 {
		t.Errorf("the suite missed one of its cases: %+v", hit)
	}
	t.Logf("cases reached: %+v", hit)
}

// TestPartitionRefineAllocIndependentOfN guards the refine layer where a
// regression would be caused: what one beamed sketch-refine search
// allocates must follow the clusters it opens (and the ⌈√n⌉ cluster
// bounds), not the catalogue size: with the run memory pooled (runMem) a
// search allocates only its result, so 80k items may cost at most 1 KB more
// than 20k. A refine that copies or filters the sorted lists per search — or
// marks members in an O(n) array, or sizes a per-cluster list afresh —
// allocates in proportion to n or √n and fails that. Bytes per search is the
// smallest of 50 per-call TotalAlloc deltas, not their mean: a per-search
// term is in every search, the cheapest included, whereas the seen-stamp
// array (8n bytes) and the run memory come from sync.Pools that a GC cycle
// may empty and the race detector empties on a quarter of its Puts —
// refills that are not the refine's and land in some searches only.
func TestPartitionRefineAllocIndependentOfN(t *testing.T) {
	mono := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum}
	bytesPerSearch := func(n int) float64 {
		items, err := dataset.Generate("cor", n, 5, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(mono...), 3)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(sp)
		ix.Heads()
		ix.EnsurePartition(0)
		rng := rand.New(rand.NewSource(7))
		opts := Options{K: 3, MaxQueue: 128, MaxAccessed: 500}
		least := math.Inf(1)
		var before, after runtime.MemStats
		for i := 0; i <= 50; i++ {
			w := make([]float64, 5)
			for d := range w {
				w[d] = 0.05 + 0.95*rng.Float64()
			}
			u, err := feature.NewUtility(sp.Profile, w)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			res, err := ix.TopK(u, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.RefineClustersOpened == 0 {
				t.Fatalf("n=%d: the beamed refine never engaged", n)
			}
			if i > 0 { // the first search warms the seen pool
				least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
			}
		}
		return least
	}
	small, large := bytesPerSearch(20000), bytesPerSearch(80000)
	t.Logf("bytes/search: %.0f at 20k items, %.0f at 80k", small, large)
	if large > small+1024 {
		t.Errorf("a beamed refine allocates %.0f B at 80k items against %.0f B at 20k: it grows with the catalogue", large, small)
	}
}

// TestNewIndexAllocatesListsOnce: a build allocates its sorted lists at their
// final size — d·n ids plus the n-entry radix scratch — not the four-to-five
// times that which growing each list from nil leaves behind as garbage
// (9.5 MB for 2 MB of lists at 100k items, enough to tip a large set-up into
// another GC cycle).
func TestNewIndexAllocatesListsOnce(t *testing.T) {
	const n, dims = 20000, 5
	items, err := dataset.Generate("uni", n, dims, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum), 3)
	if err != nil {
		t.Fatal(err)
	}
	least := math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		ix := NewIndex(sp)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ix)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
	}
	lists := float64(dims * n * 4)
	t.Logf("NewIndex allocated %.0f B for %.0f B of lists", least, lists)
	if least > 1.25*lists {
		t.Errorf("NewIndex allocated %.0f B for %.0f B of lists: the lists are being grown, not sized", least, lists)
	}
}

// TestPartitionEmptyClusterNotOpened: a cluster emptied by deletions
// (partition.Apply keeps its index; Reps −1, bounds ±Inf) has no dimension
// to tighten its bound, so it bounds at the global ceiling — and was ranked
// first, opened and counted on every beamed search. K is set past what the
// sketch over the surviving representatives can return, so the floor is
// −Inf and every non-empty cluster opens: the count is exact, and with
// nothing closed and the beam not binding the slate is the plain search's.
func TestPartitionEmptyClusterNotOpened(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]feature.Item, 40)
	for i := range items {
		items[i] = feature.Item{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	prof := feature.SimpleProfile(feature.AggSum, feature.AggMax)
	sp, err := feature.NewSpace(items, prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	parent := partition.Build(sp, 4)
	// Delete every member of cluster 1.
	gone := parent.Members[1]
	remap := make([]int32, len(items))
	var left []feature.Item
	for i := range items {
		if _, del := slices.BinarySearch(gone, int32(i)); del {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(left))
		left = append(left, feature.Item{ID: len(left), Values: items[i].Values})
	}
	child, err := feature.NewSpace(left, prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := parent.Apply(child, remap, gone, nil)
	if !ok || len(p.Members[1]) != 0 || p.Reps[1] != -1 {
		t.Fatalf("Apply did not leave cluster 1 empty: ok=%t members=%v rep=%d", ok, p.Members[1], p.Reps[1])
	}
	var stats PartitionStats
	ix := NewIndex(child)
	ix.ConfigurePartition(&stats)
	ix.SetPartition(p)
	u, err := feature.NewUtility(prof, []float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Three representatives, φ = 2: the sketch returns at most 6 packages.
	opts := Options{K: 7}
	res, err := ix.TopK(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RefineClustersOpened != 3 || stats.ClustersOpened.Load() != 3 {
		t.Errorf("clusters opened: result %d, stats %d; want 3 (the non-empty ones)",
			res.RefineClustersOpened, stats.ClustersOpened.Load())
	}
	if res.SketchSkipped != 0 {
		t.Errorf("sketch_skipped = %d with every non-empty cluster open", res.SketchSkipped)
	}
	opts.DisablePartition = true
	plain, err := ix.TopK(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !assertSameResult(t, res, plain, "empty-cluster") {
		t.Error("slate differs from the unpartitioned search")
	}
}

// treeCase draws one bound-tree instance from rng: a random space of n
// items under a monotone utility — zero and −0 weights included, avg and
// null dimensions at weight ±0 — with nullable features, and a partition
// installed on its index. In some instances the partition is derived by
// Partition.Apply from a parent whose deleted clusters it keeps empty; in
// others bounds are pushed below zero, which no space admits as values but
// which the virtual member's losing-side rule must still handle. ok is
// false when the utility leaves the run no list.
func treeCase(t *testing.T, rng *rand.Rand, n int) (ix *Index, ps *partState, rb *run, ok bool) {
	t.Helper()
	aggs := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg, feature.AggNull}
	m := 1 + rng.Intn(4)
	dims := make([]feature.Agg, m)
	for d := range dims {
		dims[d] = aggs[rng.Intn(len(aggs))]
	}
	nulls := rng.Intn(3) // 0 none, 1 light, 2 heavy
	items := make([]feature.Item, n)
	for i := range items {
		vals := make([]float64, m)
		for j := range vals {
			vals[j] = pruneValue(rng, nulls > 0)
			if nulls == 2 && rng.Intn(3) == 0 {
				vals[j] = feature.Null
			}
		}
		items[i] = feature.Item{ID: i, Values: vals}
	}
	prof := feature.SimpleProfile(dims...)
	maxSize := 1 + rng.Intn(3)
	sp, err := feature.NewSpace(items, prof, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	p := partition.Build(sp, 1+rng.Intn(min(n, 24)))
	if p.K > 1 && rng.Intn(3) == 0 { // delete whole clusters, keeping one
		var gone []int32
		for c := 0; c < p.K-1; c++ {
			if rng.Intn(3) == 0 {
				gone = append(gone, p.Members[c]...)
			}
		}
		slices.Sort(gone)
		remap := make([]int32, n)
		var left []feature.Item
		for i := range items {
			if _, del := slices.BinarySearch(gone, int32(i)); del {
				remap[i] = -1
				continue
			}
			remap[i] = int32(len(left))
			left = append(left, feature.Item{ID: len(left), Values: items[i].Values})
		}
		if sp, err = feature.NewSpace(left, prof, maxSize); err != nil {
			t.Fatal(err)
		}
		if p, ok = p.Apply(sp, remap, gone, nil); !ok {
			t.Fatal("Apply refused a pure deletion")
		}
	}
	if rng.Intn(3) == 0 {
		for c := range p.Mins {
			for d := range p.Mins[c] {
				if shift := 2 * rng.Float64(); rng.Intn(2) == 0 && !math.IsInf(p.Maxs[c][d], 0) {
					p.Mins[c][d] -= shift
					p.Maxs[c][d] -= shift
				}
			}
		}
	}
	w := make([]float64, m)
	for d := range w {
		switch {
		case dims[d] == feature.AggAvg || dims[d] == feature.AggNull || rng.Intn(4) == 0:
			if rng.Intn(2) == 0 {
				w[d] = math.Copysign(0, -1)
			}
		case dims[d] == feature.AggMin:
			w[d] = -rng.Float64()
		default:
			w[d] = rng.Float64()
		}
	}
	u, err := feature.NewUtility(prof, w)
	if err != nil {
		t.Fatal(err)
	}
	if !u.SetMonotone(prof) {
		t.Fatalf("weights %v are not monotone for %v", w, dims)
	}
	ix = NewIndex(sp)
	ix.SetPartition(p)
	ps = ix.part.Load()
	rb, ok = ix.newRun(u, Options{K: 1, MaxQueue: wideBeam}, nil)
	return ix, ps, rb, ok
}

// TestPartitionTreeBoundSound: the one argument the refine's pruned walk
// rests on — every node of the bound tree bounds at least as high as every
// non-empty cluster below it, so a subtree whose root bounds below L holds
// no cluster that reaches L. A node is memberless exactly when every
// cluster below it is empty, and the leaves are the cluster ids in order.
func TestPartitionTreeBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var hit struct{ trials, emptied, negative, strict int }
	for trial := 0; hit.trials < 500; trial++ {
		_, ps, rb, ok := treeCase(t, rng, 4+rng.Intn(200))
		if !ok {
			continue
		}
		hit.trials++
		p, tree := ps.p, ps.tree
		var leaves []int32
		for i, nd := range tree {
			if nd.hi-nd.lo == 1 {
				leaves = append(leaves, nd.lo)
				if len(p.Members[nd.lo]) == 0 {
					hit.emptied++
				}
				for d := range p.Maxs[nd.lo] {
					if p.Maxs[nd.lo][d] < 0 {
						hit.negative++
					}
				}
				continue
			}
			nb := negInf
			if nd.member != nil {
				nb = rb.memberBound(nd.member)
			}
			for _, leaf := range tree[i+1 : nd.end] {
				if leaf.hi-leaf.lo != 1 || leaf.member == nil {
					continue
				}
				lb := rb.memberBound(leaf.member)
				if !(nb >= lb) {
					t.Fatalf("trial %d: node [%d,%d) bounds %v below its cluster %d's %v (w %v)",
						trial, nd.lo, nd.hi, nb, leaf.lo, lb, rb.u.W)
				}
				if nb > lb {
					hit.strict++
				}
			}
			empty := !slices.ContainsFunc(p.Members[nd.lo:nd.hi], func(ms []int32) bool { return len(ms) > 0 })
			if (nd.member == nil) != empty {
				t.Fatalf("trial %d: node [%d,%d) memberless %t, every cluster below empty %t", trial, nd.lo, nd.hi, nd.member == nil, empty)
			}
		}
		for i, c := range leaves {
			if len(leaves) != p.K || c != int32(i) {
				t.Fatalf("trial %d: leaves %v are not the cluster ids 0..%d", trial, leaves, p.K-1)
			}
		}
		rb.returnMem()
	}
	t.Logf("%+v", hit)
	if hit.emptied == 0 || hit.negative == 0 || hit.strict == 0 {
		t.Errorf("coverage too thin: %+v", hit)
	}
}

// clusterBound is the flat reference the bound tree replaces: cluster c's
// virtual member assembled per search from the weights — skipping a
// dimension of weight ±0, an all-null one, and one where a member is null
// and the best value scores negatively (w·v < 0) — and bounded like
// memberBound.
func clusterBound(r *run, p *partition.Partition, c int32) float64 {
	sp := r.ix.space
	contribs := make([]feature.Contrib, sp.Dims())
	for d := range contribs {
		e := sp.Profile.Entry(d)
		w := r.u.W[d]
		if w == 0 || e.Agg == feature.AggNull {
			contribs[d] = feature.Contrib{Skip: true}
			continue
		}
		v := p.Maxs[c][d]
		if e.Agg == feature.AggMin {
			v = p.Mins[c][d]
		}
		contribs[d] = feature.Contrib{Skip: math.IsInf(v, 0) || (p.AnyNull[c][d] && w*v < 0), Value: v}
	}
	st := feature.NewState(sp)
	st.AddContrib(contribs)
	return r.memberBound(st)
}

// TestPartitionTreeMask: the refine's tree walk scores exactly the clusters
// a flat scan of every cluster with the per-search reference bound keeps —
// same ids, same bound bits, ascending — so the sorted list, the budget
// loop and the open mask are the flat scan's by construction. Trials cover
// emptied clusters, bounds below zero, floors set exactly at some cluster's
// bound (the ≥ edge), a −∞ floor (the sketch returned fewer than K
// packages) and, on 2 000-item spaces, an item budget that binds.
func TestPartitionTreeMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3636))
	var hit struct{ trials, pruned, negInf, atFloor, budget, emptied int }
	for trial := 0; hit.trials < 2000; trial++ {
		n := 4 + rng.Intn(200)
		if trial%16 == 0 {
			n = 2000
		}
		ix, ps, rb, ok := treeCase(t, rng, n)
		if !ok {
			continue
		}
		hit.trials++
		p := ps.p
		// Sketch packages: up to three of up to φ random items.
		var sketch []pkgspace.Scored
		for s := rng.Intn(4); s > 0; s-- {
			ids := make([]int, 1+rng.Intn(ix.space.MaxSize))
			for i := range ids {
				ids[i] = rng.Intn(ix.space.N())
			}
			sketch = append(sketch, pkgspace.Scored{Pkg: pkgspace.New(ids...)})
		}
		open := make([]bool, p.K)
		used, opened := 0, 0
		for _, s := range sketch {
			for _, id := range s.Pkg.IDs {
				if c := p.Assign[id]; !open[c] {
					open[c] = true
					used += len(p.Members[c])
					opened++
				}
			}
		}
		var flat []clusterScore // every non-empty cluster, by id
		for c := int32(0); c < int32(p.K); c++ {
			if len(p.Members[c]) > 0 {
				flat = append(flat, clusterScore{c, clusterBound(rb, p, c)})
			} else {
				hit.emptied++
			}
		}
		floorL := negInf
		switch rng.Intn(4) {
		case 0:
			hit.negInf++
		case 1:
			floorL = flat[rng.Intn(len(flat))].bound
			hit.atFloor++
		default:
			floorL = flat[rng.Intn(len(flat))].bound + 0.2*rng.NormFloat64()
		}

		var want []clusterScore
		for _, cs := range flat {
			if !open[cs.c] && cs.bound >= floorL {
				want = append(want, cs)
			}
		}
		got := ps.scoreClusters(rb, slices.Clone(open), floorL)
		if !slices.EqualFunc(got, want, func(a, b clusterScore) bool {
			return a.c == b.c && math.Float64bits(a.bound) == math.Float64bits(b.bound)
		}) {
			t.Fatalf("trial %d (floor %v, w %v): tree scored %v, flat scan %v", trial, floorL, rb.u.W, got, want)
		}
		for _, nd := range ps.tree {
			if nd.hi-nd.lo > 1 && nd.member != nil && rb.memberBound(nd.member) < floorL {
				hit.pruned++
				break
			}
		}

		slices.SortFunc(want, func(a, b clusterScore) int {
			if a.bound != b.bound {
				if a.bound > b.bound {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.c, b.c)
		})
		limit := used + refineBudgetItems(ix.space.N())
		for _, cs := range want {
			if used >= limit {
				hit.budget++
				break
			}
			open[cs.c] = true
			used += len(p.Members[cs.c])
			opened++
		}
		gotOpen, gotUsed, gotOpened := ix.openClusters(rb, ps, sketch, floorL)
		if !slices.Equal(gotOpen, open) || gotUsed != used || gotOpened != opened {
			t.Fatalf("trial %d: mask %v (%d items, %d clusters), flat scan %v (%d, %d)",
				trial, gotOpen, gotUsed, gotOpened, open, used, opened)
		}
		rb.returnMem()
	}
	t.Logf("%+v", hit)
	if hit.pruned == 0 || hit.negInf == 0 || hit.atFloor == 0 || hit.budget == 0 || hit.emptied == 0 {
		t.Errorf("coverage too thin: %+v", hit)
	}
}
