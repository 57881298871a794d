package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"toppkg/internal/core"
)

// gateStore wraps a MemStore so tests can hold snapshot writes in flight:
// every Save announces itself on started, then blocks until release is
// closed. Load/Delete pass straight through.
type gateStore struct {
	*MemStore
	started chan string
	release chan struct{}
}

func newGateStore() *gateStore {
	return &gateStore{
		MemStore: NewMemStore(),
		started:  make(chan string, 16),
		release:  make(chan struct{}),
	}
}

func (g *gateStore) Save(id string, s *core.Snapshot) error {
	g.started <- id
	<-g.release
	return g.MemStore.Save(id, s)
}

// waitSaveStart fails the test if no Save begins within the deadline.
func (g *gateStore) waitSaveStart(t *testing.T, want string) {
	t.Helper()
	select {
	case id := <-g.started:
		if id != want {
			t.Fatalf("save started for %q, want %q", id, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no snapshot write started for %q", want)
	}
}

// TestMissNotBlockedBySnapshotWrite is the async-eviction acceptance test:
// with a store whose writes hang and both writers held, a brand-new
// session's first request must complete while the victims' snapshot writes
// are still in flight: its own victim waits in the queue. A synchronous
// evict would run the save on the new session's miss path.
func TestMissNotBlockedBySnapshotWrite(t *testing.T) {
	store := newGateStore()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedbackN(t, m, "alice", 1) // learned state, so eviction will Save
	feedbackN(t, m, "bob", 1)   // misses: unlinks alice to a background writer
	store.waitSaveStart(t, "alice")
	feedbackN(t, m, "carol", 1) // bob goes to the other writer
	store.waitSaveStart(t, "bob")

	// Both writers are now blocked in the store. A new session's first
	// request must not queue behind them.
	done := make(chan error, 1)
	go func() {
		done <- m.Do("dave", func(*core.Engine) error { return nil })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dave's first request: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("new session's first request blocked behind another session's snapshot write")
	}
	if st := m.Stats(); st.EvictQueue != 3 || st.EvictSyncFallbacks != 0 {
		t.Errorf("EvictQueue = %d, EvictSyncFallbacks = %d; want 3 queued or in flight and none synchronous",
			st.EvictQueue, st.EvictSyncFallbacks)
	}

	close(store.release)
	m.Shutdown()
	for _, id := range []string{"alice", "bob", "carol"} {
		if _, err := store.Load(id); err != nil {
			t.Errorf("%s's snapshot lost: %v", id, err)
		}
	}
	m.Close()
}

// TestRestoreWhileSnapshotInFlight: a request for the victim's own ID
// during its in-flight snapshot write must wait the save out and then
// restore the fresh snapshot — the evict-save vs miss-restore ordering the
// manager guarantees.
func TestRestoreWhileSnapshotInFlight(t *testing.T) {
	store := newGateStore()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedbackN(t, m, "alice", 2)
	feedbackN(t, m, "bob", 1) // alice → background writer
	store.waitSaveStart(t, "alice")

	got := make(chan int, 1)
	fail := make(chan error, 1)
	go func() {
		err := m.Do("alice", func(eng *core.Engine) error {
			got <- eng.Stats().Feedback
			return nil
		})
		if err != nil {
			fail <- err
		}
	}()
	// The request must be parked behind the in-flight save, not served
	// from a half-evicted session: nothing may arrive before the release.
	select {
	case n := <-got:
		t.Fatalf("request for mid-evict session completed (feedback %d) before its snapshot write finished", n)
	case err := <-fail:
		t.Fatal(err)
	case <-time.After(100 * time.Millisecond):
	}
	close(store.release)
	select {
	case n := <-got:
		if n != 2 {
			t.Errorf("restored feedback = %d, want 2 (stale or lost snapshot)", n)
		}
	case err := <-fail:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("request never completed after the save released")
	}
	if st := m.Stats(); st.Restored != 1 {
		t.Errorf("Restored = %d, want 1: %+v", st.Restored, st)
	}
	m.Close()
}

// TestShutdownWaitsForQueuedEvictions: graceful shutdown must not return
// while background snapshot writes are still in flight.
func TestShutdownWaitsForQueuedEvictions(t *testing.T) {
	store := newGateStore()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedbackN(t, m, "alice", 1)
	feedbackN(t, m, "bob", 1)
	store.waitSaveStart(t, "alice")

	done := make(chan struct{})
	go func() {
		m.Shutdown()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a snapshot write was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(store.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung after the save released")
	}
	for _, id := range []string{"alice", "bob"} {
		if _, err := store.Load(id); err != nil {
			t.Errorf("%s's snapshot missing after Shutdown: %v", id, err)
		}
	}
	m.Close()
}

// TestDeleteWhileEvictQueued: deleting a session already handed to the
// background writer must win — no snapshot may survive, whether the delete
// beats the writer to the session lock or not.
func TestDeleteWhileEvictQueued(t *testing.T) {
	store := newGateStore()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedbackN(t, m, "alice", 1)
	feedbackN(t, m, "bob", 1) // alice queued
	store.waitSaveStart(t, "alice")
	done := make(chan error, 1)
	go func() { done <- m.Delete("alice") }() // queues behind the in-flight save
	close(store.release)
	if err := <-done; err != nil {
		t.Fatalf("Delete: %v", err)
	}
	m.Flush()
	if _, err := store.Load("alice"); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("deleted session's snapshot survived: %v", err)
	}
	if err := m.Do("alice", func(eng *core.Engine) error {
		if n := eng.Stats().Feedback; n != 0 {
			return fmt.Errorf("deleted session resurrected with %d feedbacks", n)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
	m.Close()
}

// TestCloseFallsBackToSyncEviction: after Close, evictions still happen —
// synchronously on the evicting request — so residency stays bounded.
func TestCloseFallsBackToSyncEviction(t *testing.T) {
	store := NewMemStore()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	feedbackN(t, m, "alice", 1)
	feedbackN(t, m, "bob", 1) // must evict alice synchronously
	if store.Len() != 1 {
		t.Fatalf("store holds %d snapshots after sync-fallback eviction", store.Len())
	}
	if st := m.Stats(); st.EvictSyncFallbacks == 0 || st.Evicted == 0 {
		t.Errorf("fallback counters: %+v", st)
	}
}

// TestAsyncEvictionChurn interleaves Do, Delete, Flush, and eviction
// pressure from many goroutines over few IDs with a tiny capacity; run
// with -race. The point is the interleavings — evict/restore/delete in
// every order — with the invariant that the manager stays consistent and
// every operation either succeeds or reports ErrNotFound (from racing
// deletes).
func TestAsyncEvictionChurn(t *testing.T) {
	store := NewMemStore()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
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
				switch rng.Intn(10) {
				case 0:
					if err := m.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- fmt.Errorf("delete %s: %w", id, err)
						return
					}
				case 1:
					m.Flush()
				default:
					if err := m.Do(id, func(eng *core.Engine) error {
						return eng.Feedback(pack(i%10), pack(20+i%10))
					}); err != nil {
						errs <- fmt.Errorf("do %s: %w", id, err)
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
	m.Shutdown()
	m.Close()
	if st := m.Stats(); st.SaveErrors != 0 || st.Live != 0 {
		t.Errorf("after churn: %+v", st)
	}
	// The manager must still serve correctly after the storm.
	if err := m.Do("fresh", func(eng *core.Engine) error {
		_, err := eng.Recommend()
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRacesInFlightEviction: DELETE for a session whose eviction
// snapshot is mid-write must not let that snapshot resurrect the session.
// The manager's guarantee is ordering — Delete's store removal queues
// behind the in-flight save on the session mutex — so after Delete
// returns, the store is empty for that ID and the next request starts
// from scratch.
func TestDeleteRacesInFlightEviction(t *testing.T) {
	store := newGateStore()
	m, err := NewManager(Config{Shared: testShared(t), Capacity: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedbackN(t, m, "alice", 2) // learned state: eviction will Save
	feedbackN(t, m, "bob", 1)   // miss: alice handed to the background writer
	store.waitSaveStart(t, "alice")

	// Alice's snapshot write is now hanging in the store. Delete must park
	// behind it rather than racing the file into/out of existence.
	deleted := make(chan error, 1)
	go func() { deleted <- m.Delete("alice") }()
	select {
	case err := <-deleted:
		t.Fatalf("Delete returned (%v) while the eviction save was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(store.release)
	select {
	case err := <-deleted:
		if err != nil {
			t.Fatalf("Delete after in-flight save: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Delete never completed after the save was released")
	}
	if _, err := store.Load("alice"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("deleted session's eviction snapshot survived: %v", err)
	}
	// The next request must start fresh, not resurrect evicted state.
	err = m.Do("alice", func(eng *core.Engine) error {
		if n := eng.Stats().Feedback; n != 0 {
			return fmt.Errorf("deleted session resurrected with %d feedback", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
}
