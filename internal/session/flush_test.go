package session

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"toppkg/internal/core"
)

// TestFlushMatching checks FlushMatching's contract: only
// matching sessions are evicted, their state lands in the store before
// the call returns, and a later Do restores it.
func TestFlushMatching(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 64, store)
	ids := []string{"u0", "u1", "u2", "u3"}
	for i, id := range ids {
		feedbackN(t, m, id, i+1)
	}
	even := func(id string) bool {
		n, _ := strconv.Atoi(id[1:])
		return n%2 == 0
	}
	if n := m.FlushMatching(even); n != 2 {
		t.Fatalf("FlushMatching evicted %d sessions, want 2", n)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("%d sessions resident after flush, want 2", got)
	}
	// Flushed state is in the store the moment FlushMatching returns.
	for _, id := range []string{"u0", "u2"} {
		if _, err := store.Load(id); err != nil {
			t.Fatalf("no snapshot for flushed session %s: %v", id, err)
		}
	}
	for i, id := range ids {
		want := i + 1
		err := m.Do(id, func(eng *core.Engine) error {
			if got := eng.Stats().Feedback; got != want {
				t.Errorf("session %s has %d feedback after flush cycle, want %d", id, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Restored != 2 {
		t.Errorf("Restored = %d, want 2 (the flushed pair)", st.Restored)
	}
	if st.SaveErrors != 0 || st.RestoreFailures != 0 {
		t.Errorf("flush cycle lost state: %+v", st)
	}

	// Flushing everything empties the table;
	// re-flushing is a no-op, not a double count.
	if n := m.FlushMatching(func(string) bool { return true }); n != 4 {
		t.Fatalf("flush-all evicted %d, want 4", n)
	}
	if n := m.FlushMatching(func(string) bool { return true }); n != 0 {
		t.Fatalf("second flush-all evicted %d, want 0", n)
	}
}

// TestFlushMatchingRaceConcurrentRestores hammers FlushMatching against
// concurrent Do traffic on the same IDs: a flushed session's next request
// restores it while the flush is still sweeping. The invariant: whatever
// interleaving happens, no session's learned feedback is ever lost and no
// save or restore fails. Run under -race this also proves the locking protocol.
func TestFlushMatchingRaceConcurrentRestores(t *testing.T) {
	store := NewMemStore()
	m := testManager(t, 64, store)
	const sessions = 8
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%02d", i)
		feedbackN(t, m, ids[i], 1)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := m.Do(id, func(eng *core.Engine) error {
					if got := eng.Stats().Feedback; got != 1 {
						t.Errorf("session %s observed %d feedback mid-churn, want 1", id, got)
					}
					return nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", id, err)
					return
				}
			}
		}(id)
	}
	evenPred := func(id string) bool {
		n, _ := strconv.Atoi(id[1:])
		return n%2 == 0
	}
	oddPred := func(id string) bool { return !evenPred(id) }
	for i := 0; i < 150; i++ {
		if i%2 == 0 {
			m.FlushMatching(evenPred)
		} else {
			m.FlushMatching(oddPred)
		}
	}
	close(stop)
	wg.Wait()
	for _, id := range ids {
		err := m.Do(id, func(eng *core.Engine) error {
			if got := eng.Stats().Feedback; got != 1 {
				t.Errorf("session %s ended with %d feedback, want 1", id, got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.SaveErrors != 0 || st.RestoreFailures != 0 {
		t.Fatalf("flush/restore churn lost state: %+v", st)
	}
}
