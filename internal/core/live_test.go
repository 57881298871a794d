// Tests for the live-catalogue serving path: epoch-pinned Recommend over a
// mutable catalog.Catalog, the bit-identical post-swap property, and the
// race-tested guarantee that concurrent recommends across an epoch swap
// never observe a torn index or a cross-epoch cached result.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/search"
)

func liveProfile() *feature.Profile {
	return feature.SimpleProfile(feature.AggSum, feature.AggAvg)
}

// liveConfig is the engine configuration both sides of the bit-identical
// comparison share. Everything that could perturb determinism is pinned.
func liveConfig() Config {
	return Config{
		Profile:        liveProfile(),
		MaxPackageSize: 3,
		K:              2,
		RandomCount:    2,
		SampleCount:    40,
		Seed:           7,
		Search:         search.Options{MaxQueue: 32, MaxAccessed: 100},
	}
}

func liveCatalog(t *testing.T, coalesce time.Duration, n int) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.New(catalog.Config{
		Profile:        liveProfile(),
		MaxPackageSize: 3,
		Items:          dataset.UNI(n, 2, rand.New(rand.NewSource(3))),
		Coalesce:       coalesce,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// mustSlate builds a fresh engine from sh with the shared seed and runs
// one Recommend.
func mustSlate(t *testing.T, sh *Shared) *Slate {
	t.Helper()
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	slate, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	return slate
}

// sameSlate asserts two slates are bit-identical: same recommended
// packages with bitwise-equal scores, in order, and the same exploration
// tail.
func sameSlate(t *testing.T, label string, got, want *Slate) {
	t.Helper()
	if len(got.Recommended) != len(want.Recommended) {
		t.Fatalf("%s: %d recommended, want %d", label, len(got.Recommended), len(want.Recommended))
	}
	for i := range want.Recommended {
		g, w := got.Recommended[i], want.Recommended[i]
		if g.Pkg.Signature() != w.Pkg.Signature() {
			t.Fatalf("%s: recommended[%d] = %s, want %s", label, i, g.Pkg.Signature(), w.Pkg.Signature())
		}
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: recommended[%d] score %v, want bit-identical %v", label, i, g.Score, w.Score)
		}
	}
	if len(got.Random) != len(want.Random) {
		t.Fatalf("%s: %d random, want %d", label, len(got.Random), len(want.Random))
	}
	for i := range want.Random {
		if got.Random[i].Signature() != want.Random[i].Signature() {
			t.Fatalf("%s: random[%d] = %s, want %s", label, i, got.Random[i].Signature(), want.Random[i].Signature())
		}
	}
}

// TestLiveRecommendBitIdenticalAfterMutations is the tentpole's property
// test: after any Upsert/Delete batch, a Recommend served through the live
// Shared (with its warm, epoch-keyed result cache) is bit-identical to a
// fresh engine built statically from the mutated item set — i.e. epoch
// swaps are semantically invisible, and nothing cached before a swap can
// leak through it.
func TestLiveRecommendBitIdenticalAfterMutations(t *testing.T) {
	cat := liveCatalog(t, -1, 30) // synchronous rebuilds: deterministic
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	nextID := 1000
	for trial := 0; trial < 10; trial++ {
		// Random mutation batch: add items, reprice survivors, delete some.
		switch trial % 3 {
		case 0: // insert a few brand-new items
			batch := make([]feature.Item, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = feature.Item{ID: nextID, Name: "new", Values: []float64{rng.Float64(), rng.Float64()}}
				nextID++
			}
			if err := cat.Upsert(batch); err != nil {
				t.Fatal(err)
			}
		case 1: // reprice existing items in place (stable IDs unchanged)
			ep := cat.Current()
			i := rng.Intn(len(ep.Items()))
			it := ep.Items()[i]
			it.ID = ep.IDs().StableID(i)
			it.Values = []float64{rng.Float64(), rng.Float64()}
			if err := cat.Upsert([]feature.Item{it}); err != nil {
				t.Fatal(err)
			}
		default: // delete a random surviving item
			ep := cat.Current()
			if _, err := cat.Delete([]int{ep.IDs().StableID(rng.Intn(len(ep.Items())))}); err != nil {
				t.Fatal(err)
			}
		}

		ep := cat.Current()
		live := mustSlate(t, sh)
		if live.Epoch != ep.ID {
			t.Fatalf("trial %d: slate pinned epoch %d, catalogue at %d", trial, live.Epoch, ep.ID)
		}

		// The oracle: a cold engine over exactly the mutated item set, with
		// caching disabled so nothing can be reused from anywhere.
		cfg := liveConfig()
		cfg.Items = ep.Items()
		cfg.SearchCacheSize = -1
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		sameSlate(t, "after mutation batch", live, want)
	}
	// Every swap drops the shared result cache wholesale: one more swap on
	// the warm cache must leave it empty.
	if err := cat.Upsert([]feature.Item{{ID: nextID, Values: []float64{0.5, 0.5}}}); err != nil {
		t.Fatal(err)
	}
	if n := sh.SearchCache().Len(); n != 0 {
		t.Errorf("%d result-cache entries survived an epoch swap", n)
	}
	if st := sh.SearchCache().Stats(); st.InvalidationDrops == 0 {
		t.Error("epoch swaps never dropped anything from the shared result cache")
	}
}

// TestStaleCacheNotServedAfterReprice pins the cross-epoch cache hazard
// directly: warm the cache, change every item's values (which changes
// every top-k), and verify the next Recommend reflects the new values
// rather than the cached pre-swap results.
func TestStaleCacheNotServedAfterReprice(t *testing.T) {
	cat := liveCatalog(t, -1, 20)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	before := mustSlate(t, sh) // warms the shared cache for epoch 1
	_ = before

	ep := cat.Current()
	rng := rand.New(rand.NewSource(4))
	batch := make([]feature.Item, len(ep.Items()))
	for i := range batch {
		batch[i] = feature.Item{
			ID:     ep.IDs().StableID(i),
			Name:   ep.Items()[i].Name,
			Values: []float64{rng.Float64(), rng.Float64()},
		}
	}
	if err := cat.Upsert(batch); err != nil {
		t.Fatal(err)
	}

	cfg := liveConfig()
	cfg.Items = cat.Current().Items()
	cfg.SearchCacheSize = -1
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	sameSlate(t, "after full reprice", mustSlate(t, sh), want)
}

// TestFeedbackSurvivesEpochSwap: learned state is geometric (constraint
// vectors computed at feedback time), so a session keeps recommending
// after the catalogue changes under it.
func TestFeedbackSurvivesEpochSwap(t *testing.T) {
	cat := liveCatalog(t, -1, 25)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	slate, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Click(slate.All[0], slate.All); err != nil {
		t.Fatal(err)
	}
	if err := cat.Upsert([]feature.Item{{ID: 500, Values: []float64{0.9, 0.9}}}); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Recommend()
	if err != nil {
		t.Fatalf("recommend after swap with feedback: %v", err)
	}
	if after.Epoch != cat.Current().ID {
		t.Fatalf("post-swap slate pinned epoch %d, want %d", after.Epoch, cat.Current().ID)
	}
	if eng.Stats().Feedback == 0 {
		t.Fatal("feedback lost across swap")
	}
}

// TestClickResolvesAgainstSlateEpoch: a click always refers to the slate
// the user saw, so its item IDs must be interpreted in — and its
// preference vectors computed from — that slate's epoch, even after the
// catalogue shrinks or remaps dense IDs underneath it.
func TestClickResolvesAgainstSlateEpoch(t *testing.T) {
	cat := liveCatalog(t, -1, 25)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	slate, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the catalogue so the slate's highest dense IDs are out of
	// range in the current epoch, and remap everything below them.
	ep := cat.Current()
	if _, err := cat.Delete([]int{ep.IDs().StableID(0), ep.IDs().StableID(1), ep.IDs().StableID(2)}); err != nil {
		t.Fatal(err)
	}
	if got := eng.FeedbackSpace(); got != slate.Space {
		t.Fatal("FeedbackSpace is not the last slate's epoch space")
	}
	if err := eng.Click(slate.All[0], slate.All); err != nil {
		t.Fatalf("click on a pre-swap slate rejected: %v", err)
	}
	if eng.Stats().Feedback == 0 {
		t.Fatal("pre-swap click recorded no feedback")
	}
	// The next slate moves to the new epoch, and future feedback with it.
	after, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != cat.Current().ID {
		t.Fatalf("next slate epoch = %d, want %d", after.Epoch, cat.Current().ID)
	}
	if got := eng.FeedbackSpace(); got != after.Space {
		t.Fatal("FeedbackSpace did not advance with the new slate")
	}
}

// replaySurviving applies a v2 snapshot's preferences to a fresh engine
// the way Restore remaps them onto epoch ep: vanished members dropped,
// emptied/collapsed/contradictory preferences skipped. It is the test's
// independent model of the restore semantics.
func replaySurviving(t *testing.T, eng *Engine, prefs []PreferencePair, ep *catalog.Epoch) {
	t.Helper()
	for _, pr := range prefs {
		var wd, ld []int
		for _, s := range pr.Winner {
			if d, ok := ep.DenseID(s); ok {
				wd = append(wd, d)
			}
		}
		for _, s := range pr.Loser {
			if d, ok := ep.DenseID(s); ok {
				ld = append(ld, d)
			}
		}
		if len(wd) == 0 || len(ld) == 0 {
			continue
		}
		w, l := pkgspace.New(wd...), pkgspace.New(ld...)
		if w.Signature() == l.Signature() {
			continue
		}
		if err := eng.Feedback(w, l); err != nil && !errors.Is(err, prefgraph.ErrCycle) {
			t.Fatal(err)
		}
	}
}

// TestSnapshotChurnRestoreBitIdentical is the stable-ID tentpole's
// property test: learned state snapshotted under epoch N, carried across
// upsert/delete churn, and restored under epoch M must behave exactly like
// an engine that replayed the surviving preferences fresh against epoch M
// — same constraint geometry, same lazily drawn pool, bit-identical
// recommendations. The vanished members show up in the drop counters, not
// as restore failures.
func TestSnapshotChurnRestoreBitIdentical(t *testing.T) {
	cat := liveCatalog(t, -1, 30) // UNI item IDs 0..29: dense == stable at epoch 1
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}

	// The churn applied between snapshot and restore: stable 0 goes
	// (remapping every surviving dense ID), stable 2 goes (a member of
	// three preferences, twice as a whole side), fresh inventory arrives.
	rng := rand.New(rand.NewSource(41))
	newItems := []feature.Item{
		{ID: 500, Name: "new-a", Values: []float64{rng.Float64(), rng.Float64()}},
		{ID: 501, Name: "new-b", Values: []float64{rng.Float64(), rng.Float64()}},
	}
	// A trial catalogue (same seed → identical items) previews the
	// post-churn epoch, so preference pairs can be oriented by a hidden
	// utility over their post-churn remnants: the remapped constraint set
	// the restored engine samples under stays feasible by construction.
	trial := liveCatalog(t, -1, 30)
	if _, err := trial.Delete([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := trial.Upsert(newItems); err != nil {
		t.Fatal(err)
	}
	epTrial := trial.Current()
	hidden := []float64{0.7, -0.4}
	remnantUtility := func(p pkgspace.Package) (float64, bool) {
		var dense []int
		for _, s := range p.IDs { // dense == stable under epoch 1
			if d, ok := epTrial.DenseID(s); ok {
				dense = append(dense, d)
			}
		}
		if len(dense) == 0 {
			return 0, false
		}
		return feature.Dot(hidden, pkgspace.Vector(epTrial.Space, pkgspace.New(dense...))), true
	}

	// Feedback before any Recommend: the pool stays undrawn, so both
	// sides of the comparison draw it lazily from identical rng state.
	for _, pr := range [][2]pkgspace.Package{
		{pkgspace.New(0, 1), pkgspace.New(2)},
		{pkgspace.New(2), pkgspace.New(3, 4)},
		{pkgspace.New(5, 6), pkgspace.New(7)},
		{pkgspace.New(8), pkgspace.New(9, 10)},
		{pkgspace.New(2, 11), pkgspace.New(12)},
		{pkgspace.New(13), pkgspace.New(14, 15)},
	} {
		a, b := pr[0], pr[1]
		ua, aok := remnantUtility(a)
		ub, bok := remnantUtility(b)
		if aok && bok && ub > ua {
			a, b = b, a
		}
		if err := eng.Feedback(a, b); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Snapshot()
	if snap.Version != 2 {
		t.Fatalf("snapshot version %d, want 2", snap.Version)
	}
	savedEpoch := cat.Current().ID

	if _, err := cat.Delete([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Upsert(newItems); err != nil {
		t.Fatal(err)
	}
	epM := cat.Current()
	if epM.ID == savedEpoch {
		t.Fatal("churn did not advance the epoch")
	}

	restored, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Restore(snap); err != nil {
		t.Fatalf("restore across churn must not fail: %v", err)
	}
	st := restored.Stats()
	items, prefs := st.RestoreDroppedItems, st.RestoreDroppedPrefs
	// Stable 2 appears in three preferences (3 item drops); {2}≻{3,4} and
	// {0,1}≻{2} lose a whole side each (2 preference drops); stable 0
	// appears once more in {0,1}.
	if items != 4 || prefs != 2 {
		t.Fatalf("restore drops = (%d items, %d prefs), want (4, 2)", items, prefs)
	}
	got, err := restored.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != epM.ID {
		t.Fatalf("restored slate pinned epoch %d, catalogue at %d", got.Epoch, epM.ID)
	}

	// The oracle: a cold static engine over exactly epoch M's items,
	// caching disabled, replaying the surviving preferences itself.
	cfg := liveConfig()
	cfg.Items = epM.Items()
	cfg.SearchCacheSize = -1
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replaySurviving(t, fresh, snap.Preferences, epM)
	if rc, fc := restored.pinned().graph.Edges(), fresh.pinned().graph.Edges(); rc != fc {
		t.Fatalf("restored graph has %d edges, fresh replay %d", rc, fc)
	}
	want, err := fresh.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	sameSlate(t, "restore after churn vs fresh replay", got, want)
}

// TestSnapshotSameEpochKeepsPool: without churn between save and restore
// the snapshot's sample pool is installed verbatim — the evict/restore
// fast path must stay an identity operation.
func TestSnapshotSameEpochKeepsPool(t *testing.T) {
	cat := liveCatalog(t, -1, 25)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	slate, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Click(slate.All[0], slate.All); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if len(snap.Samples) == 0 {
		t.Fatal("engine with a drawn pool snapshotted no samples")
	}
	restored, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	s1, err := eng.Samples()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := restored.Samples()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("restored pool size %d, want %d", len(s2), len(s1))
	}
	for i := range s1 {
		for j := range s1[i].W {
			if s1[i].W[j] != s2[i].W[j] {
				t.Fatalf("same-epoch restore perturbed pool sample %d dim %d", i, j)
			}
		}
	}
}

// TestRestoreKeepsPoolWhenConstraintsUnchanged: a swap that moves no
// preference vector (an insert below every scale) reproduces the
// constraint set the pool satisfies, so a restore under the new epoch
// keeps the pool bit-identically.
func TestRestoreKeepsPoolWhenConstraintsUnchanged(t *testing.T) {
	cat := liveCatalog(t, -1, 25)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recommend(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feedback(pkgspace.New(0), pkgspace.New(1)); err != nil {
		t.Fatal(err)
	}
	before := cat.Current()
	if err := cat.Upsert([]feature.Item{{ID: 900, Values: []float64{0.001, 0.001}}}); err != nil {
		t.Fatal(err)
	}
	after := cat.Current()
	if after.ID == before.ID {
		t.Fatal("upsert did not advance the epoch")
	}
	for d := 0; d < after.Space.Dims(); d++ {
		if math.Float64bits(after.Space.Scale(d)) != math.Float64bits(before.Space.Scale(d)) {
			t.Fatalf("precondition: scale[%d] moved from %v to %v", d, before.Space.Scale(d), after.Space.Scale(d))
		}
	}
	snap := eng.Snapshot()
	restored, err := sh.NewEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.pool == nil {
		t.Fatal("constraint-neutral swap redrew the pool")
	}
	want, got := eng.pool.Samples, restored.pool.Samples
	if len(got) != len(want) {
		t.Fatalf("restored pool size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Q) != math.Float64bits(want[i].Q) {
			t.Fatalf("sample %d weight %v, want %v", i, got[i].Q, want[i].Q)
		}
		for j := range want[i].W {
			if math.Float64bits(got[i].W[j]) != math.Float64bits(want[i].W[j]) {
				t.Fatalf("sample %d dim %d = %v, want %v", i, j, got[i].W[j], want[i].W[j])
			}
		}
	}
}

// TestConcurrentRecommendAcrossSwaps is the tentpole's race suite (run
// under -race): many sessions recommend while the catalogue churns. Each
// slate must be internally coherent — computed against one epoch, every
// item ID resolvable in that epoch's space, scores finite — and epochs
// observed by one session must be monotone.
func TestConcurrentRecommendAcrossSwaps(t *testing.T) {
	cat := liveCatalog(t, time.Millisecond, 25)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 6
	stop := make(chan struct{})
	errs := make(chan error, sessions+1)
	var wg sync.WaitGroup

	// Mutator: inserts, reprices, and deletes only its own high-ID items,
	// forcing a steady stream of epoch swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(555))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 2000 + rng.Intn(10)
			if i%4 == 3 {
				if _, err := cat.Delete([]int{id}); err != nil {
					errs <- err
					return
				}
			} else if err := cat.Upsert([]feature.Item{{ID: id, Values: []float64{rng.Float64(), rng.Float64()}}}); err != nil {
				errs <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng, err := sh.NewEngine(int64(s + 1))
			if err != nil {
				errs <- err
				return
			}
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				slate, err := eng.Recommend()
				if err != nil {
					errs <- err
					return
				}
				if slate.Epoch < lastEpoch {
					errs <- fmt.Errorf("slate epoch went backwards: %d after %d", slate.Epoch, lastEpoch)
					return
				}
				lastEpoch = slate.Epoch
				n := len(slate.Space.Items)
				for _, p := range slate.All {
					for _, id := range p.IDs {
						if id < 0 || id >= n {
							errs <- fmt.Errorf("epoch %d slate references item %d outside its %d-item space", slate.Epoch, id, n)
							return
						}
					}
				}
				for _, r := range slate.Recommended {
					if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
						errs <- fmt.Errorf("epoch %d slate has non-finite score %v", slate.Epoch, r.Score)
						return
					}
				}
			}
		}(s)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cat.Flush()
	if cat.Current().ID < 2 {
		t.Fatal("catalogue never swapped during the race window")
	}
}

// TestSnapshotOmitsCrossEpochPool: a pool drawn and maintained under one
// epoch's geometry satisfies that epoch's constraint set. The snapshot
// ships it with that set's hash, and a restore under a rescaled epoch
// (renormalized vectors change every constraint) redraws it — keeping the
// pool would install samples checked against other constraints. The
// resident session applies the same rule at its next Recommend.
func TestSnapshotOmitsCrossEpochPool(t *testing.T) {
	cat := liveCatalog(t, -1, 25)
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recommend(); err != nil { // pool drawn under epoch 1
		t.Fatal(err)
	}
	if err := eng.Feedback(pkgspace.New(0), pkgspace.New(1)); err != nil {
		t.Fatal(err)
	}
	// An item with out-of-range values rescales the normalizer: every
	// package vector changes in epoch 2, so epoch-1 constraint geometry is
	// not reproducible from epoch 2.
	if err := cat.Upsert([]feature.Item{{ID: 700, Values: []float64{5, 5}}}); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot() // the epoch-1 pool, before any epoch-2 slate
	if len(snap.Preferences) != 1 {
		t.Fatalf("snapshot has %d preferences, want 1", len(snap.Preferences))
	}
	if len(snap.Samples) == 0 {
		t.Fatal("snapshot omitted the drawn pool")
	}
	restored, err := sh.NewEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.pool != nil {
		t.Fatal("pool maintained against epoch-1 constraints kept under the rescaled epoch")
	}
	// The resident's next slate is ranked in epoch 2, whose derived set
	// hashes differently: its pool is redrawn, not carried across.
	epoch1Pool := eng.pool
	if _, err := eng.Recommend(); err != nil {
		t.Fatal(err)
	}
	if eng.pool == epoch1Pool {
		t.Fatal("resident kept its epoch-1 pool for an epoch-2 slate")
	}
	// That redrawn pool answers to epoch 2, so it restores there intact.
	if _, err := restored.Restore(eng.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if restored.pool == nil {
		t.Fatal("pool drawn under the restore-time epoch was redrawn")
	}
	// A pool without preferences satisfies the empty constraint set under
	// any epoch and is kept.
	virgin, err := sh.NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := virgin.Recommend(); err != nil {
		t.Fatal(err)
	}
	vs := virgin.Snapshot()
	if len(vs.Samples) == 0 || vs.ConstraintsHash != 0 {
		t.Fatalf("preference-free snapshot: %d samples, constraints hash %x", len(vs.Samples), vs.ConstraintsHash)
	}
	if _, err := restored.Restore(vs); err != nil {
		t.Fatal(err)
	}
	if restored.pool == nil {
		t.Fatal("preference-free pool redrawn")
	}
}

// TestFeedbackFitsDerivedGraph: feedback is judged against the constraint
// set its slate's epoch derives. With a member of an earlier preference
// deleted, the shrunken preference stands, and feedback reversing it is a
// contradiction (nothing recorded) even though no stable-ID cycle forms.
// Once the member is back, the stored preference reads whole again and
// the same feedback is consistent.
func TestFeedbackFitsDerivedGraph(t *testing.T) {
	cat := liveCatalog(t, -1, 25) // UNI stable IDs 0..24, dense == stable at epoch 1
	sh, err := NewLiveShared(liveConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recommend(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feedback(pkgspace.New(0, 5), pkgspace.New(1)); err != nil {
		t.Fatal(err)
	}
	item5 := cat.Current().Items()[5]
	if _, err := cat.Delete([]int{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recommend(); err != nil { // dense 0 and 1 are still stable 0 and 1
		t.Fatal(err)
	}
	if err := eng.Feedback(pkgspace.New(1), pkgspace.New(0)); !errors.Is(err, prefgraph.ErrCycle) {
		t.Fatalf("feedback reversing the shrunken {0}≻{1}: err = %v, want ErrCycle", err)
	}
	if st := eng.Stats(); st.Feedback != 1 || eng.graph.Edges() != 1 {
		t.Fatalf("contradiction recorded: Feedback = %d, stored edges = %d", st.Feedback, eng.graph.Edges())
	}
	if err := cat.Upsert([]feature.Item{item5}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recommend(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feedback(pkgspace.New(1), pkgspace.New(0)); err != nil {
		t.Fatalf("feedback consistent with {0,5}≻{1} rejected: %v", err)
	}
}
