package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/search"
)

// testShared builds a small shared catalogue; engines derived from it are
// cheap and deterministic.
func testShared(t *testing.T) *core.Shared {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sh, err := core.NewShared(core.Config{
		Items:          dataset.UNI(40, 2, rng),
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 3,
		K:              2,
		RandomCount:    1,
		SampleCount:    60,
		Seed:           5,
		Search:         search.Options{MaxQueue: 32, MaxAccessed: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func testManager(t *testing.T, capacity int, store Store) *Manager {
	t.Helper()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: capacity, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// feedbackN records n non-contradictory preferences in the session: item
// packages {i} ≻ {i+n} for distinct is, all winners disjoint from losers.
func feedbackN(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := m.Do(id, func(eng *core.Engine) error {
			return eng.Feedback(pack(i), pack(20+i))
		})
		if err != nil {
			t.Fatalf("feedback %d on %s: %v", i, id, err)
		}
	}
}

func pack(ids ...int) pkgspace.Package { return pkgspace.New(ids...) }

func TestValidID(t *testing.T) {
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{"alice", true},
		{"user-1.2_3", true},
		{"A", true},
		{"", false},
		{".hidden", false},
		{"../escape", false},
		{"a/b", false},
		{"has space", false},
		{strings.Repeat("x", MaxIDLen), true},
		{strings.Repeat("x", MaxIDLen+1), false},
	} {
		if got := ValidID(tc.id); got != tc.ok {
			t.Errorf("ValidID(%q) = %v, want %v", tc.id, got, tc.ok)
		}
	}
}

func TestSeedForDistinctAndStable(t *testing.T) {
	a, b := SeedFor("alice"), SeedFor("bob")
	if a == b {
		t.Errorf("SeedFor collision: %d", a)
	}
	if a != SeedFor("alice") {
		t.Error("SeedFor not deterministic")
	}
	if SeedFor("alice") == 0 {
		t.Error("SeedFor must be non-zero")
	}
}

func TestDoCreatesAndIsolatesSessions(t *testing.T) {
	m := testManager(t, 8, nil)
	feedbackN(t, m, "alice", 3)
	feedbackN(t, m, "bob", 1)
	for _, tc := range []struct {
		id   string
		want int
	}{{"alice", 3}, {"bob", 1}, {"carol", 0}} {
		var got int
		if err := m.Do(tc.id, func(eng *core.Engine) error {
			got = eng.Stats().Feedback
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("session %s Feedback = %d, want %d", tc.id, got, tc.want)
		}
	}
	if n := m.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
}

func TestBadIDRejected(t *testing.T) {
	m := testManager(t, 2, nil)
	err := m.Do("../etc/passwd", func(*core.Engine) error { return nil })
	if !errors.Is(err, ErrBadID) {
		t.Errorf("bad id error = %v, want ErrBadID", err)
	}
	if err := m.Delete("a b"); !errors.Is(err, ErrBadID) {
		t.Errorf("Delete bad id = %v, want ErrBadID", err)
	}
}

func TestLRUEvictionWithoutStoreDropsState(t *testing.T) {
	m := testManager(t, 2, nil)
	feedbackN(t, m, "alice", 2)
	feedbackN(t, m, "bob", 1)
	feedbackN(t, m, "carol", 1) // evicts alice (LRU back)
	if n := m.Len(); n != 2 {
		t.Fatalf("Len after eviction = %d, want 2", n)
	}
	var got int
	if err := m.Do("alice", func(eng *core.Engine) error { // recreated fresh
		got = eng.Stats().Feedback
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("re-created alice Feedback = %d, want 0 (no store)", got)
	}
	if st := m.Stats(); st.Evicted < 2 { // alice once, then bob or carol
		t.Errorf("Evicted = %d, want ≥ 2", st.Evicted)
	}
}

// TestEvictRestoreRoundTrip proves a snapshot-evicted session resumes with
// identical learned state: preferences, sample pool, and counters.
func TestEvictRestoreRoundTrip(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 1, store)
	// Draw the sample pool before recording feedback: the pool is then
	// maintained incrementally per §3.4 rather than drawn under the full
	// constraint set, matching the serving flow (recommend, then clicks).
	if err := m.Do("alice", func(eng *core.Engine) error {
		_, err := eng.Recommend()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	feedbackN(t, m, "alice", 3)
	var before *core.Snapshot
	if err := m.Do("alice", func(eng *core.Engine) error {
		before = eng.Snapshot()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(before.Samples) == 0 || len(before.Preferences) != 3 {
		t.Fatalf("precondition: %d samples, %d prefs", len(before.Samples), len(before.Preferences))
	}

	feedbackN(t, m, "bob", 1) // capacity 1: evicts alice through the store
	if store.Len() == 0 {
		t.Fatal("eviction did not snapshot alice")
	}

	var after *core.Snapshot
	if err := m.Do("alice", func(eng *core.Engine) error { // restore-on-miss
		after = eng.Snapshot()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if string(bj) != string(aj) {
		t.Errorf("restored state differs:\nbefore %.200s\nafter  %.200s", bj, aj)
	}
	st := m.Stats()
	if st.Restored == 0 || st.Evicted == 0 {
		t.Errorf("counters: %+v, want Restored/Evicted > 0", st)
	}
}

func TestDelete(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 4, store)
	feedbackN(t, m, "alice", 1)
	if err := m.Delete("alice"); err != nil {
		t.Fatalf("Delete live session: %v", err)
	}
	var got int
	if err := m.Do("alice", func(eng *core.Engine) error {
		got = eng.Stats().Feedback
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("deleted session resumed with Feedback = %d", got)
	}
	if err := m.Delete("alice"); err != nil { // now resident again
		t.Fatalf("second delete: %v", err)
	}
	if err := m.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete unknown = %v, want ErrNotFound", err)
	}
}

func TestDeleteRemovesSnapshot(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 1, store)
	feedbackN(t, m, "alice", 2)
	feedbackN(t, m, "bob", 1) // evicts alice into the store
	if store.Len() == 0 {
		t.Fatal("no snapshot saved")
	}
	if err := m.Delete("alice"); err != nil { // not resident, snapshot only
		t.Fatalf("Delete snapshotted session: %v", err)
	}
	if _, err := store.Load("alice"); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("snapshot survived delete: %v", err)
	}
}

func TestList(t *testing.T) {
	m := testManager(t, 8, nil)
	feedbackN(t, m, "bob", 2)
	feedbackN(t, m, "alice", 1)
	infos := m.List()
	if len(infos) != 2 {
		t.Fatalf("List len = %d", len(infos))
	}
	if infos[0].ID != "alice" || infos[1].ID != "bob" {
		t.Errorf("List order: %+v", infos)
	}
	if infos[0].Feedback != 1 || infos[1].Feedback != 2 {
		t.Errorf("List feedback counts: %+v", infos)
	}
	if infos[0].LastUsed.IsZero() {
		t.Error("LastUsed not set")
	}
}

// TestConcurrentSessions hammers the manager from many goroutines, each
// owning one session, interleaving recommends, clicks, and feedback. Run
// with -race. Afterwards every session must hold exactly its own state —
// no cross-session leakage.
func TestConcurrentSessions(t *testing.T) {
	const workers = 24
	m := testManager(t, workers, nil)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("user-%d", w)
			// w%5+1 feedbacks, interleaved with recommends and clicks.
			for i := 0; i <= w%5; i++ {
				if err := m.Do(id, func(eng *core.Engine) error {
					return eng.Feedback(pack(i), pack(20+i))
				}); err != nil {
					errs <- fmt.Errorf("%s feedback: %w", id, err)
					return
				}
				if i == 0 {
					if err := m.Do(id, func(eng *core.Engine) error {
						slate, err := eng.Recommend()
						if err != nil {
							return err
						}
						return eng.Click(slate.All[0], slate.All)
					}); err != nil {
						errs <- fmt.Errorf("%s recommend/click: %w", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("user-%d", w)
		var st core.Stats
		if err := m.Do(id, func(eng *core.Engine) error {
			st = eng.Stats()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// The click on the first recommend adds len(All)-1 preferences on
		// top of the w%5+1 explicit ones (minus any cycle skips).
		wantMin := w%5 + 1
		if st.Feedback < wantMin {
			t.Errorf("%s Feedback = %d, want ≥ %d", id, st.Feedback, wantMin)
		}
	}
}

// TestConcurrentEvictionChurn drives far more sessions than capacity from
// many goroutines with a store attached, so creates, hits, evictions, and
// restores interleave aggressively. Run with -race. Every session's
// explicit feedback must survive the churn intact.
func TestConcurrentEvictionChurn(t *testing.T) {
	const (
		workers = 16
		rounds  = 4
	)
	store := NewMemStore()
	m := testManager(t, 4, store) // much smaller than the session count
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("churn-%d", w)
			for i := 0; i < rounds; i++ {
				if err := m.Do(id, func(eng *core.Engine) error {
					return eng.Feedback(pack(i), pack(20+i))
				}); err != nil {
					errs <- fmt.Errorf("%s round %d: %w", id, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Evicted == 0 {
		t.Fatalf("churn produced no evictions: %+v", st)
	}
	// With 16 ids and capacity 4, most sessions were evicted; reading each
	// back exercises restore-on-miss and must find the state intact.
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("churn-%d", w)
		var got int
		if err := m.Do(id, func(eng *core.Engine) error {
			got = eng.Stats().Feedback
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != rounds {
			t.Errorf("%s Feedback = %d, want %d (state lost in eviction churn)", id, got, rounds)
		}
	}
	st := m.Stats()
	if st.Restored == 0 {
		t.Errorf("verification pass restored nothing: %+v", st)
	}
	if st.SaveErrors != 0 {
		t.Errorf("SaveErrors = %d", st.SaveErrors)
	}
}

// TestAsyncEvictionChurn interleaves Do, Delete and eviction pressure from
// many goroutines over few IDs at capacity 2; run with -race. Evict,
// restore and delete race in every order: each operation succeeds or
// reports ErrNotFound (from racing deletes), and the manager ends
// consistent and serving.
func TestAsyncEvictionChurn(t *testing.T) {
	m := testManager(t, 2, NewMemStore())
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				id := fmt.Sprintf("churn-%d", rng.Intn(6))
				if rng.Intn(10) == 0 {
					if err := m.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- fmt.Errorf("delete %s: %w", id, err)
						return
					}
					continue
				}
				if err := m.Do(id, func(eng *core.Engine) error {
					return eng.Feedback(pack(i%10), pack(20+i%10))
				}); err != nil {
					errs <- fmt.Errorf("do %s: %w", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m.Shutdown()
	if st := m.Stats(); st.SaveErrors != 0 || st.Live != 0 {
		t.Errorf("after churn: %+v", st)
	}
	if err := m.Do("fresh", func(eng *core.Engine) error {
		_, err := eng.Recommend()
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSameSession serializes many goroutines on one session; the
// per-session mutex must make their feedback atomic and ordered.
func TestConcurrentSameSession(t *testing.T) {
	m := testManager(t, 2, nil)
	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_ = m.Do("shared", func(eng *core.Engine) error {
				return eng.Feedback(pack(w), pack(20+w))
			})
		}(w)
	}
	wg.Wait()
	var st core.Stats
	if err := m.Do("shared", func(eng *core.Engine) error {
		st = eng.Stats()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st.Feedback+st.CyclesSkipped != workers {
		t.Errorf("Feedback %d + CyclesSkipped %d != %d", st.Feedback, st.CyclesSkipped, workers)
	}
}

func TestManagerConfigValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Error("nil Shared accepted")
	}
	if _, err := NewManager(Config{Shared: testShared(t), Capacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
}

// TestEvictionSkipsEmptySessions: a session that never learned anything is
// evicted without writing a snapshot, so scanning random session IDs
// cannot grow the store without bound.
func TestEvictionSkipsEmptySessions(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 1, store)
	touch := func(id string) {
		if err := m.Do(id, func(*core.Engine) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	touch("idle-1")
	touch("idle-2") // evicts idle-1, which holds no preferences and no pool
	touch("idle-3") // evicts idle-2
	if n := store.Len(); n != 0 {
		t.Errorf("empty sessions left %d snapshots", n)
	}
	if st := m.Stats(); st.Evicted < 2 || st.SaveErrors != 0 {
		t.Errorf("counters: %+v", st)
	}
}

// TestShutdownFlushesResidentSessions: graceful shutdown snapshots every
// resident session so state survives a restart without LRU pressure.
func TestShutdownFlushesResidentSessions(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 8, store)
	feedbackN(t, m, "alice", 2)
	feedbackN(t, m, "bob", 1)
	m.Do("idle", func(*core.Engine) error { return nil }) // no learned state
	m.Shutdown()
	if n := m.Len(); n != 0 {
		t.Errorf("Len after Shutdown = %d", n)
	}
	if n := store.Len(); n != 2 { // alice + bob; idle skipped
		t.Errorf("store holds %d snapshots after Shutdown, want 2", n)
	}
	// A fresh manager over the same store resumes the state.
	m2, err := NewManager(Config{Shared: testShared(t), Capacity: 8, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	if err := m2.Do("alice", func(eng *core.Engine) error {
		got = eng.Stats().Feedback
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("restarted alice Feedback = %d, want 2", got)
	}
}

// TestEvictionClearsStaleSnapshotOnReset: a session restored from a
// snapshot and then reset to zero feedback must not resurrect the old
// state from the store on its next eviction.
func TestEvictionClearsStaleSnapshotOnReset(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 1, store)
	feedbackN(t, m, "alice", 2)
	feedbackN(t, m, "bob", 1) // evicts alice with 2 prefs
	if store.Len() != 1 {
		t.Fatal("no snapshot saved")
	}
	// Restore alice, then reset her learned state in place.
	if err := m.Do("alice", func(eng *core.Engine) error {
		_, err := eng.Restore(&core.Snapshot{Version: 2})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	feedbackN(t, m, "bob", 1) // evicts the now-empty alice
	var got int
	if err := m.Do("alice", func(eng *core.Engine) error {
		got = eng.Stats().Feedback
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("reset session resurrected %d feedbacks from a stale snapshot", got)
	}
}

// TestUnrestorableSnapshotStartsFresh: a snapshot Restore rejects (a
// corrupt file) must not brick the session with an endless
// restore-and-500 loop: the manager drops the snapshot, counts the loss,
// and serves a fresh session.
func TestUnrestorableSnapshotStartsFresh(t *testing.T) {
	store := NewMemStore()
	// A self-preference is corruption, not churn.
	bad := &core.Snapshot{
		Version:     2,
		Preferences: []core.PreferencePair{{Winner: []int{1}, Loser: []int{1}}},
	}
	if err := store.Save("alice", bad); err != nil {
		t.Fatal(err)
	}
	m := testManager(t, 4, store)
	err := m.Do("alice", func(eng *core.Engine) error {
		if n := eng.Stats().Feedback; n != 0 {
			t.Errorf("session restored from unrestorable snapshot: feedback %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("request after unrestorable snapshot: %v", err)
	}
	if st := m.Stats(); st.RestoreFailures != 1 || st.Restored != 0 || st.Created != 1 {
		t.Fatalf("stats = %+v, want RestoreFailures 1, Restored 0, Created 1", st)
	}
	if _, err := store.Load("alice"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("unrestorable snapshot not dropped: %v", err)
	}
}

// TestEvictRestoreAcrossCatalogChurn: a session evicted under epoch N and
// restored under epoch M (items deleted in between) must come back with
// its surviving preferences remapped through stable IDs — not fail the
// restore, not silently shift preference labels. The loss is visible in
// the manager's restore_dropped_* counters.
func TestEvictRestoreAcrossCatalogChurn(t *testing.T) {
	cat, err := catalog.New(catalog.Config{
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 3,
		Items:          dataset.UNI(20, 2, rand.New(rand.NewSource(71))),
		Coalesce:       -1, // synchronous swaps: deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.NewLiveShared(core.Config{
		K:           2,
		RandomCount: 1,
		SampleCount: 40,
		Seed:        5,
		Search:      search.Options{MaxQueue: 32, MaxAccessed: 100},
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Shared: sh, Capacity: 1, Store: NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}

	// alice learns two preferences under epoch 1 (UNI stable == dense).
	err = m.Do("alice", func(eng *core.Engine) error {
		if err := eng.Feedback(pkgspace.New(0, 1), pkgspace.New(2)); err != nil {
			return err
		}
		return eng.Feedback(pkgspace.New(3), pkgspace.New(4, 5))
	})
	if err != nil {
		t.Fatal(err)
	}
	// bob's miss evicts alice; once it returns, her snapshot is in the store.
	if err := m.Do("bob", func(*core.Engine) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// The catalogue loses item 2 — a whole side of alice's first
	// preference — and item 0, shifting every surviving dense ID.
	if _, err := cat.Delete([]int{0, 2}); err != nil {
		t.Fatal(err)
	}

	// alice's next request miss-restores under the shrunken epoch.
	err = m.Do("alice", func(eng *core.Engine) error {
		if got := eng.Stats().ConstraintsActive; got != 1 {
			t.Errorf("restored %d constraints, want 1 ({3}≻{4,5} survives churn)", got)
		}
		if st := eng.Stats(); st.RestoreDroppedItems != 2 || st.RestoreDroppedPrefs != 1 {
			t.Errorf("engine restore drops = (%d, %d), want (2, 1)", st.RestoreDroppedItems, st.RestoreDroppedPrefs)
		}
		if _, err := eng.Recommend(); err != nil {
			t.Errorf("restored session cannot recommend: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("restore across catalogue churn failed: %v", err)
	}
	st := m.Stats()
	if st.Restored != 1 || st.RestoreFailures != 0 {
		t.Errorf("stats = restored %d, failures %d; churn must not brick the restore", st.Restored, st.RestoreFailures)
	}
	if st.RestoreDroppedItems != 2 || st.RestoreDroppedPrefs != 1 {
		t.Errorf("manager drop counters = (%d, %d), want (2, 1)",
			st.RestoreDroppedItems, st.RestoreDroppedPrefs)
	}
}
