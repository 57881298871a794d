package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"toppkg/internal/core"
)

// gateStore wraps a MemStore so tests can hold snapshot writes in flight:
// every Save announces itself on started, then blocks until open closes
// release. Load/Delete pass straight through.
type gateStore struct {
	*MemStore
	started chan string
	release chan struct{}
	once    sync.Once
}

func (g *gateStore) open() { g.once.Do(func() { close(g.release) }) }

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

// displace runs bob's first request on its own goroutine. With capacity 1
// it displaces the resident session, whose save the gate then holds. The
// gate opens at cleanup, so a failing test does not leave a save hanging.
func displace(t *testing.T, m *Manager, g *gateStore) <-chan error {
	t.Cleanup(g.open)
	done := make(chan error, 1)
	go func() { done <- m.Do("bob", func(*core.Engine) error { return nil }) }()
	return done
}

// TestEvictionSavesOnDisplacingRequest: the request that pushes a session
// out of the LRU saves it before returning, so once that request is done
// the victim's snapshot is in the store.
func TestEvictionSavesOnDisplacingRequest(t *testing.T) {
	store := newGateStore()
	m := testManager(t, 1, store)
	feedbackN(t, m, "alice", 1) // learned state, so eviction will Save
	done := displace(t, m, store)
	store.waitSaveStart(t, "alice")
	select {
	case err := <-done:
		t.Fatalf("displacing request returned (%v) while the victim's save was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	store.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("alice"); err != nil {
		t.Fatalf("victim's snapshot missing after the displacing request returned: %v", err)
	}
	if st := m.Stats(); st.Evicted != 1 || st.Live != 1 {
		t.Errorf("stats = %+v, want Evicted 1, Live 1", st)
	}
}

// TestRestoreWhileSnapshotInFlight: a request for the victim's own ID
// during its in-flight snapshot write must wait the save out and then
// restore the fresh snapshot — the evict-save vs miss-restore ordering the
// manager guarantees.
func TestRestoreWhileSnapshotInFlight(t *testing.T) {
	store := newGateStore()
	m := testManager(t, 1, store)
	feedbackN(t, m, "alice", 2)
	displaced := displace(t, m, store)
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
	store.open()
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
	if err := <-displaced; err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Restored != 1 {
		t.Errorf("Restored = %d, want 1: %+v", st.Restored, st)
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
	m := testManager(t, 1, store)
	feedbackN(t, m, "alice", 2) // learned state: eviction will Save
	displaced := displace(t, m, store)
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

	store.open()
	select {
	case err := <-deleted:
		if err != nil {
			t.Fatalf("Delete after in-flight save: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Delete never completed after the save was released")
	}
	if err := <-displaced; err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("alice"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("deleted session's eviction snapshot survived: %v", err)
	}
	// The next request must start fresh, not resurrect evicted state.
	err := m.Do("alice", func(eng *core.Engine) error {
		if n := eng.Stats().Feedback; n != 0 {
			return fmt.Errorf("deleted session resurrected with %d feedback", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
