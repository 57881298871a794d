package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"toppkg/internal/feature"
	"toppkg/internal/maintain"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
)

// nextKeepsPool is the pool rule Recommend applies under epoch ep: a pool
// drawn under the pinned epoch is kept iff ep derives a constraint set
// with the same hash.
func nextKeepsPool(e *Engine, ep epochView) bool {
	return e.pool != nil && (e.cs.ep.id == ep.id ||
		constraintsHash(e.constraintsAt(e.cs.ep).reduced()) == constraintsHash(e.constraintsAt(ep).reduced()))
}

// checkPinned fails unless e's pinned constraint set, as its readers see
// it, is a fresh derivation under the pinned epoch: the same edges in the
// same node order, the same reduced constraints in the same order and the
// same drop counts.
func checkPinned(t *testing.T, e *Engine) {
	t.Helper()
	if e.cs == nil {
		return
	}
	got, want := e.pinned(), e.constraintsAt(e.cs.ep)
	if got.droppedItems != want.droppedItems || got.droppedPrefs != want.droppedPrefs {
		t.Fatalf("epoch %d: pinned set drops (%d, %d), a fresh derivation (%d, %d)",
			got.ep.id, got.droppedItems, got.droppedPrefs, want.droppedItems, want.droppedPrefs)
	}
	samePair := func(a, b [2]pkgspace.Package) bool { return pkgspace.Equal(a[0], b[0]) && pkgspace.Equal(a[1], b[1]) }
	if !slices.EqualFunc(got.graph.Preferences(), want.graph.Preferences(), samePair) {
		t.Fatalf("epoch %d: pinned edges %v, a fresh derivation's %v", got.ep.id, got.graph.Preferences(), want.graph.Preferences())
	}
	sameConstraint := func(a, b prefgraph.Constraint) bool {
		return pkgspace.Equal(a.Winner, b.Winner) && pkgspace.Equal(a.Loser, b.Loser) && slices.Equal(a.Diff, b.Diff)
	}
	if !slices.EqualFunc(got.reduced(), want.reduced(), sameConstraint) {
		t.Fatalf("epoch %d: pinned reduced set of %d constraints differs from a fresh derivation's %d",
			got.ep.id, len(got.reduced()), len(want.reduced()))
	}
}

// TestPinnedSetMatchesFreshDerivation: on a static catalogue every
// preference is read whole, so a feedback keeps the pinned set and clears
// only its reduced constraints. A fixed-seed stream of clicks (mostly on
// the hidden utility's best package, sometimes at random), explicit
// preferences, repeats and reversals of recorded preferences checks the
// pinned set against a fresh derivation, and Stats against it, after
// every op.
func TestPinnedSetMatchesFreshDerivation(t *testing.T) {
	cfg := testConfig(t, 30)
	cfg.SampleCount, cfg.Psi = 40, 0.9
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := rand.New(rand.NewSource(11))
	hidden := []float64{0.6, -0.2, 0.4}
	utility := func(p pkgspace.Package) float64 { return feature.Dot(hidden, pkgspace.Vector(e.FeedbackSpace(), p)) }
	slate, err := e.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 100; step++ {
		switch op := ops.Intn(10); {
		case op < 2:
			if slate, err = e.Recommend(); err != nil {
				t.Fatal(err)
			}
		case op < 7: // click the hidden utility's best package, or one at random
			chosen := slate.All[ops.Intn(len(slate.All))]
			if op < 6 {
				for _, p := range slate.All {
					if utility(p) > utility(chosen) {
						chosen = p
					}
				}
			}
			if err := e.Click(chosen, slate.All); err != nil {
				t.Fatal(err)
			}
		case op < 9: // a recorded preference again, or reversed (a cycle)
			prefs := e.graph.Preferences()
			if len(prefs) == 0 {
				break
			}
			pr := prefs[ops.Intn(len(prefs))]
			if op == 8 {
				pr[0], pr[1] = pr[1], pr[0]
			}
			if err := e.Feedback(pr[0], pr[1]); err != nil && !errors.Is(err, prefgraph.ErrCycle) {
				t.Fatal(err)
			}
		default: // an explicit preference between two shown packages
			a, b := slate.All[ops.Intn(len(slate.All))], slate.All[ops.Intn(len(slate.All))]
			if utility(a) < utility(b) {
				a, b = b, a
			}
			if err := e.Feedback(a, b); err != nil && !errors.Is(err, prefgraph.ErrCycle) && !errors.Is(err, prefgraph.ErrSelfPreference) {
				t.Fatal(err)
			}
		}
		checkPinned(t, e)
		if got, want := e.Stats().ConstraintsActive, len(e.constraintsAt(e.cs.ep).reduced()); got != want {
			t.Fatalf("step %d: Stats.ConstraintsActive %d, a fresh derivation has %d", step, got, want)
		}
	}
	if e.stats.Feedback < 20 || e.stats.CyclesSkipped == 0 {
		t.Fatalf("stream too tame: %d preferences, %d cycles skipped", e.stats.Feedback, e.stats.CyclesSkipped)
	}
}

// TestRestoreMatchesResidentUnderChurn: a session's constraint set is a
// function of its stable-ID preferences and the epoch alone, so a
// resident session and its evicted-and-restored twin read every epoch
// alike. Fixed-seed op streams interleave clicks and feedback with
// upserts, reprices and deletes (a deleted stable ID comes back later)
// and with evict/restore cycles after which the restored twin carries the
// session on. After every op a twin restored from the session's snapshot
// agrees with it on the current epoch's constraintsHash and on whether the
// next Recommend keeps the pool or redraws it; the twin's Recommend (every
// op) and the session's (on its recommend ops) must act as predicted. At
// ψ = 1 every pool sample satisfies every constraint the slate's epoch
// derives. After every op both engines' pinned sets equal a fresh
// derivation (checkPinned).
func TestRestoreMatchesResidentUnderChurn(t *testing.T) {
	checked := 0
	for _, psi := range []float64{1, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("psi=%v/seed=%d", psi, seed), func(t *testing.T) {
				checked += residentRestoredChurn(t, psi, seed)
			})
		}
	}
	if checked < 100 {
		t.Fatalf("only %d ψ = 1 pools were checked against their derived constraints", checked)
	}
}

// residentRestoredChurn runs one op stream and returns how many pools it
// checked against their derived constraints.
func residentRestoredChurn(t *testing.T, psi float64, seed int64) int {
	cat := liveCatalog(t, -1, 25) // synchronous swaps: deterministic
	cfg := liveConfig()
	cfg.Psi, cfg.SampleCount = psi, 20
	sh, err := NewLiveShared(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	ops := rand.New(rand.NewSource(seed))
	hidden := []float64{0.8, -0.3} // orients every preference
	utility := func(sp *feature.Space, p pkgspace.Package) float64 {
		return feature.Dot(hidden, pkgspace.Vector(sp, p))
	}
	values := func() []float64 {
		if ops.Intn(8) == 0 {
			return []float64{1 + 4*ops.Float64(), ops.Float64()} // rescales the normalizer
		}
		return []float64{ops.Float64(), ops.Float64()}
	}
	// dirty marks pools holding draws the sampler could not constrain: it
	// fell back to the prior (an infeasible derived set) or kept violators
	// it could not replace. Those are exempt from the ψ = 1 check by design.
	dirty := map[*maintain.Pool]bool{}
	failures := func(e *Engine) int { return e.stats.InitialSampleFallbacks + e.stats.ReplacementFailures }
	restored := func(e *Engine) *Engine {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, e.Snapshot()); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := sh.NewEngine(seed + 1000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if twin.pool != nil {
			dirty[twin.pool] = dirty[e.pool]
		}
		return twin
	}
	checked := 0
	recommend := func(e *Engine) *Slate {
		t.Helper()
		keep, before, failed := nextKeepsPool(e, sh.epoch()), e.pool, failures(e)
		slate, err := e.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		kept := before != nil && e.pool == before
		if kept != keep {
			t.Fatalf("epoch %d: Recommend kept the pool = %v, rule says %v", slate.Epoch, kept, keep)
		}
		if !kept {
			dirty[e.pool] = failures(e) != failed
		}
		if psi == 1 && !dirty[e.pool] {
			cs := e.constraintsAt(e.cs.ep).reduced()
			for i, s := range e.pool.Samples {
				for _, c := range cs {
					if c.Violates(s.W) {
						t.Fatalf("epoch %d: pool sample %d violates %s ≻ %s", slate.Epoch, i, c.Winner, c.Loser)
					}
				}
			}
			checked++
		}
		return slate
	}

	eng, err := sh.NewEngine(seed)
	if err != nil {
		t.Fatal(err)
	}
	slate := recommend(eng)
	var deleted []feature.Item // stable IDs to bring back
	nextID := 1000
	for step := 0; step < 120; step++ {
		failed := failures(eng)
		switch op := ops.Intn(20); {
		case op < 5:
			slate = recommend(eng)
		case op < 11 && slate.Epoch != eng.cs.ep.id:
			// A restore re-pinned feedback to a later epoch than the slate's;
			// the client must fetch a new slate before answering it.
		case op < 9: // click the slate's best package by the hidden utility
			best := slate.All[0]
			for _, p := range slate.All[1:] {
				if utility(slate.Space, p) > utility(slate.Space, best) {
					best = p
				}
			}
			if err := eng.Click(best, slate.All); err != nil {
				t.Fatal(err)
			}
		case op < 11: // one explicit preference between two shown packages
			a, b := slate.All[ops.Intn(len(slate.All))], slate.All[ops.Intn(len(slate.All))]
			if pkgspace.Equal(a, b) {
				break
			}
			if utility(slate.Space, a) < utility(slate.Space, b) {
				a, b = b, a
			}
			if err := eng.Feedback(a, b); err != nil && !errors.Is(err, prefgraph.ErrCycle) {
				t.Fatal(err)
			}
		case op < 13: // reprice a current item: a nudge, or a rescaling jump
			ep := cat.Current()
			d := ops.Intn(len(ep.Items()))
			v := values()
			if v[0] <= 1 {
				for i, x := range ep.Items()[d].Values {
					v[i] = max(0, x+0.1*(v[i]-0.5))
				}
			}
			if err := cat.Upsert([]feature.Item{{ID: ep.IDs().StableID(d), Values: v}}); err != nil {
				t.Fatal(err)
			}
		case op < 14: // fresh inventory
			nextID++
			if err := cat.Upsert([]feature.Item{{ID: nextID, Values: values()}}); err != nil {
				t.Fatal(err)
			}
		case op < 16: // delete a member of a recorded preference, if any
			if len(cat.Current().Items()) <= 12 {
				break
			}
			prefs := eng.graph.Preferences()
			ep := cat.Current()
			var stable int
			if len(prefs) > 0 {
				p := prefs[ops.Intn(len(prefs))][ops.Intn(2)]
				stable = p.IDs[ops.Intn(len(p.IDs))]
			} else {
				stable = ep.IDs().StableID(ops.Intn(len(ep.Items())))
			}
			d, ok := ep.DenseID(stable)
			if !ok {
				break // already gone
			}
			it := ep.Items()[d]
			if _, err := cat.Delete([]int{stable}); err != nil {
				t.Fatal(err)
			}
			deleted = append(deleted, feature.Item{ID: stable, Name: it.Name, Values: it.Values})
		case op < 18: // a deleted stable ID returns, as it was or repriced
			if len(deleted) == 0 {
				break
			}
			i := ops.Intn(len(deleted))
			it := deleted[i]
			deleted = append(deleted[:i], deleted[i+1:]...)
			if ops.Intn(2) == 0 {
				it.Values = values()
			}
			if err := cat.Upsert([]feature.Item{it}); err != nil {
				t.Fatal(err)
			}
		default: // evicted and restored: the twin carries the session on
			eng = restored(eng)
		}
		if failures(eng) != failed && eng.pool != nil {
			dirty[eng.pool] = true
		}

		ep := sh.epoch()
		twin := restored(eng)
		if h, th := constraintsHash(eng.constraintsAt(ep).reduced()), constraintsHash(twin.constraintsAt(ep).reduced()); h != th {
			t.Fatalf("step %d, epoch %d: resident constraints hash %x, restored %x", step, ep.id, h, th)
		}
		if keep, tkeep := nextKeepsPool(eng, ep), nextKeepsPool(twin, ep); keep != tkeep {
			t.Fatalf("step %d, epoch %d: resident keeps its pool = %v, restored = %v", step, ep.id, keep, tkeep)
		}
		recommend(twin)
		checkPinned(t, eng)
		checkPinned(t, twin)
	}
	return checked
}
