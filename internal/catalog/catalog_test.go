package catalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
)

func testProfile() *feature.Profile {
	return feature.SimpleProfile(feature.AggSum, feature.AggAvg)
}

func testItems(n int, seed int64) []feature.Item {
	return dataset.UNI(n, 2, rand.New(rand.NewSource(seed)))
}

// syncCatalog builds a catalogue in synchronous-rebuild mode, so every
// mutation is reflected in Current before the call returns.
func syncCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	c, err := New(Config{
		Profile:        testProfile(),
		MaxPackageSize: 3,
		Items:          testItems(n, 1),
		Coalesce:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewBuildsEpochOne(t *testing.T) {
	c := syncCatalog(t, 10)
	ep := c.Current()
	if ep.ID != 1 {
		t.Fatalf("initial epoch ID = %d, want 1", ep.ID)
	}
	if got := len(ep.Items()); got != 10 {
		t.Fatalf("epoch items = %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		if ep.Items()[i].ID != i {
			t.Fatalf("dense item %d has ID %d", i, ep.Items()[i].ID)
		}
		if ep.IDs().StableID(i) != i {
			t.Fatalf("StableID(%d) = %d", i, ep.IDs().StableID(i))
		}
	}
	st := c.Stats()
	if st.Epoch != 1 || st.Items != 10 || st.Rebuilds != 1 || st.Pending {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNewValidates(t *testing.T) {
	p := testProfile()
	for name, cfg := range map[string]Config{
		"nil profile":  {MaxPackageSize: 3, Items: testItems(3, 1)},
		"zero phi":     {Profile: p, Items: testItems(3, 1)},
		"empty items":  {Profile: p, MaxPackageSize: 3},
		"negative id":  {Profile: p, MaxPackageSize: 3, Items: []feature.Item{{ID: -1, Values: []float64{1, 2}}}},
		"wrong dims":   {Profile: p, MaxPackageSize: 3, Items: []feature.Item{{ID: 0, Values: []float64{1}}}},
		"negative val": {Profile: p, MaxPackageSize: 3, Items: []feature.Item{{ID: 0, Values: []float64{1, -2}}}},
		"duplicate id": {Profile: p, MaxPackageSize: 3, Items: []feature.Item{
			{ID: 0, Values: []float64{1, 2}}, {ID: 0, Values: []float64{3, 4}}}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
}

func TestUpsertAndDeleteRemapDenseIDs(t *testing.T) {
	c := syncCatalog(t, 4) // stable IDs 0..3
	old := c.Current()

	// Upsert a new item with a stable ID beyond the current range and
	// reprice an existing one in the same batch.
	err := c.Upsert([]feature.Item{
		{ID: 9, Name: "new", Values: []float64{0.5, 0.5}},
		{ID: 2, Name: "repriced", Values: []float64{0.9, 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := c.Current()
	if ep.ID != 2 {
		t.Fatalf("epoch after upsert = %d, want 2", ep.ID)
	}
	if got := len(ep.Items()); got != 5 {
		t.Fatalf("items after upsert = %d, want 5", got)
	}
	if d, ok := ep.DenseID(9); !ok || d != 4 || ep.Items()[4].Name != "new" {
		t.Fatalf("DenseID(9) = %d,%t (item %q)", d, ok, ep.Items()[4].Name)
	}
	if ep.Items()[2].Name != "repriced" || ep.Items()[2].Values[0] != 0.9 {
		t.Fatalf("repriced item not visible: %+v", ep.Items()[2])
	}
	// The old epoch is untouched: copy-on-write, not in-place mutation.
	if len(old.Items()) != 4 || old.Items()[2].Name == "repriced" {
		t.Fatalf("old epoch mutated: %+v", old.Items()[2])
	}

	// Deleting stable ID 1 shifts higher items down by one dense slot.
	removed, err := c.Delete([]int{1, 77})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	ep = c.Current()
	if ep.ID != 3 || len(ep.Items()) != 4 {
		t.Fatalf("epoch %d with %d items after delete", ep.ID, len(ep.Items()))
	}
	if _, ok := ep.DenseID(1); ok {
		t.Fatal("deleted stable ID still resolvable")
	}
	if d, ok := ep.DenseID(2); !ok || d != 1 || ep.IDs().StableID(1) != 2 {
		t.Fatalf("stable 2 should be dense 1, got %d,%t", d, ok)
	}
}

func TestDeleteMissingOnlyIsNoOp(t *testing.T) {
	c := syncCatalog(t, 3)
	removed, err := c.Delete([]int{55})
	if err != nil || removed != 0 {
		t.Fatalf("Delete(missing) = %d, %v", removed, err)
	}
	if ep := c.Current(); ep.ID != 1 {
		t.Fatalf("no-op delete rebuilt: epoch %d", ep.ID)
	}
}

func TestDeleteCannotEmptyCatalogue(t *testing.T) {
	c := syncCatalog(t, 2)
	if _, err := c.Delete([]int{0, 1}); err == nil {
		t.Fatal("delete batch emptying the catalogue was accepted")
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("rejected batch committed anyway: %d items", got)
	}
}

func TestDeleteCountsDuplicateIDsOnce(t *testing.T) {
	// A repeated ID must not inflate the removal count: on a 1-item
	// catalogue {0}, [0,0] must still trip the emptying guard...
	c := syncCatalog(t, 1)
	if _, err := c.Delete([]int{0, 0}); err == nil {
		t.Fatal("duplicate-ID batch emptied the catalogue")
	}
	if c.Len() != 1 {
		t.Fatalf("guard passed but items gone: %d", c.Len())
	}
	// ...and on {0,1}, [0,0] removes one item, not a falsely-rejected two.
	c = syncCatalog(t, 2)
	removed, err := c.Delete([]int{0, 0})
	if err != nil {
		t.Fatalf("duplicate-ID delete of one of two items rejected: %v", err)
	}
	if removed != 1 || c.Len() != 1 {
		t.Fatalf("removed = %d, remaining = %d; want 1 and 1", removed, c.Len())
	}
}

func TestUpsertValidatesWholeBatch(t *testing.T) {
	c := syncCatalog(t, 2)
	err := c.Upsert([]feature.Item{
		{ID: 5, Values: []float64{1, 1}},
		{ID: 6, Values: []float64{1}}, // wrong dims: whole batch rejected
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if c.Len() != 2 {
		t.Fatalf("partial batch committed: %d items", c.Len())
	}
}

func TestAsyncCoalescesBursts(t *testing.T) {
	c, err := New(Config{
		Profile:        testProfile(),
		MaxPackageSize: 3,
		Items:          testItems(8, 1),
		Coalesce:       30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const burst = 20
	for i := 0; i < burst; i++ {
		if err := c.Upsert([]feature.Item{{ID: 100 + i, Values: []float64{0.1, 0.2}}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	ep := c.Current()
	if got := len(ep.Items()); got != 8+burst {
		t.Fatalf("items after flush = %d, want %d", got, 8+burst)
	}
	st := c.Stats()
	if st.Pending {
		t.Fatalf("pending after Flush: %+v", st)
	}
	// Coalescing: far fewer rebuilds than batches (initial build + a
	// handful for the burst; the exact count is timing-dependent).
	if st.Rebuilds >= st.Batches {
		t.Errorf("no coalescing: %d rebuilds for %d batches", st.Rebuilds, st.Batches)
	}
}

func TestSubscribeSeesEverySwap(t *testing.T) {
	c := syncCatalog(t, 4)
	var swaps atomic.Int64
	var lastID atomic.Uint64
	c.Subscribe(func(ep *Epoch, _ *ChangeSet) {
		swaps.Add(1)
		lastID.Store(ep.ID)
	})
	for i := 0; i < 3; i++ {
		if err := c.Upsert([]feature.Item{{ID: 50 + i, Values: []float64{0.3, 0.3}}}); err != nil {
			t.Fatal(err)
		}
	}
	if swaps.Load() != 3 {
		t.Fatalf("subscriber saw %d swaps, want 3", swaps.Load())
	}
	if lastID.Load() != c.Current().ID {
		t.Fatalf("subscriber saw epoch %d, current is %d", lastID.Load(), c.Current().ID)
	}
}

// TestConcurrentMutationsAndReaders hammers the catalogue from mutators
// and readers at once (run under -race). Readers assert the invariants an
// epoch must never violate: dense IDs positional, mapping consistent,
// epoch IDs monotonic from their own point of view.
func TestConcurrentMutationsAndReaders(t *testing.T) {
	for _, mode := range []struct {
		name     string
		coalesce time.Duration
	}{{"sync", -1}, {"async", time.Millisecond}} {
		t.Run(mode.name, func(t *testing.T) {
			c, err := New(Config{
				Profile:        testProfile(),
				MaxPackageSize: 3,
				Items:          testItems(20, 1),
				Coalesce:       mode.coalesce,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, 64)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := 100 + 10*w + rng.Intn(8)
						if i%3 == 2 {
							if _, err := c.Delete([]int{id}); err != nil {
								errs <- err
								return
							}
						} else if err := c.Upsert([]feature.Item{{
							ID: id, Values: []float64{rng.Float64(), rng.Float64()},
						}}); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var last uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						ep := c.Current()
						if ep.ID < last {
							errs <- fmt.Errorf("epoch went backwards: %d after %d", ep.ID, last)
							return
						}
						last = ep.ID
						items := ep.Items()
						for i := range items {
							if items[i].ID != i {
								errs <- fmt.Errorf("epoch %d: dense item %d has ID %d", ep.ID, i, items[i].ID)
								return
							}
							if d, ok := ep.DenseID(ep.IDs().StableID(i)); !ok || d != i {
								errs <- fmt.Errorf("epoch %d: mapping broken at dense %d", ep.ID, i)
								return
							}
						}
					}
				}()
			}
			time.Sleep(150 * time.Millisecond)
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			c.Flush()
			if c.Current().ID < 2 {
				t.Fatal("no swaps happened during the race window")
			}
			if got, want := len(c.Current().Items()), c.Len(); got != want {
				t.Fatalf("flushed epoch has %d items, authoritative set %d", got, want)
			}
		})
	}
}

// TestDeleteSeesPendingChanges: existence is decided against the installed
// epoch plus the pending changes, before any build. With a 10 s coalescing
// window nothing builds: an insert of 500 makes deleting all 40 originals
// legal, after which deleting 500 would empty the catalogue.
func TestDeleteSeesPendingChanges(t *testing.T) {
	c := closeTestCatalog(t, 10*time.Second)
	if err := c.Upsert([]feature.Item{{ID: 500, Name: "only", Values: []float64{0.3, 0.7}}}); err != nil {
		t.Fatal(err)
	}
	originals := make([]int, 40)
	for i := range originals {
		originals[i] = i
	}
	if removed, err := c.Delete(originals); err != nil || removed != 40 {
		t.Fatalf("deleting the originals beside a pending insert = %d, %v; want 40, nil", removed, err)
	}
	if _, err := c.Delete([]int{500}); err == nil {
		t.Fatal("deleting the pending insert emptied the catalogue")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Current().ID != 1 {
		t.Fatal("test setup: a build ran inside the coalescing window")
	}
	c.Close()
	ep := c.Current()
	if len(ep.Items()) != 1 || ep.IDs().StableID(0) != 500 || ep.Items()[0].Name != "only" {
		t.Fatalf("final epoch holds %d items (first stable %d), want only 500", len(ep.Items()), ep.IDs().StableID(0))
	}
}

// TestConcurrentSyncMutatorsSeeTheirEpoch: in synchronous mode every
// mutation returns with its batch in Current and with the subscriber of an
// epoch covering it already run, however many mutators race (run with
// -race).
func TestConcurrentSyncMutatorsSeeTheirEpoch(t *testing.T) {
	c := syncCatalog(t, 20)
	var mu sync.Mutex
	var seen []*Epoch
	c.Subscribe(func(ep *Epoch, _ *ChangeSet) {
		mu.Lock()
		seen = append(seen, ep)
		mu.Unlock()
	})
	holds := func(ep *Epoch, it feature.Item) bool {
		d, ok := ep.DenseID(it.ID)
		return ok && valuesEqual(ep.Items()[d].Values, it.Values)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				it := feature.Item{ID: 1000 + g, Values: []float64{float64(g), float64(i)}}
				if err := c.Upsert([]feature.Item{it}); err != nil {
					errs <- err
					return
				}
				if !holds(c.Current(), it) {
					errs <- fmt.Errorf("mutator %d step %d: batch not in Current after Upsert", g, i)
					return
				}
				mu.Lock()
				notified := slices.ContainsFunc(seen, func(ep *Epoch) bool { return holds(ep, it) })
				mu.Unlock()
				if !notified {
					errs <- fmt.Errorf("mutator %d step %d: Upsert returned before the subscriber saw its epoch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNoOpOverThresholdKeepsEpoch: a change set larger than the delta
// threshold that nets out to the installed items keeps the installed epoch
// (no swap, no subscriber call), exactly like a small one.
func TestNoOpOverThresholdKeepsEpoch(t *testing.T) {
	items := testItems(6, 3)
	c, err := New(Config{Profile: testProfile(), MaxPackageSize: 3, Items: items, Coalesce: -1, DeltaThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	var swaps atomic.Int64
	c.Subscribe(func(*Epoch, *ChangeSet) { swaps.Add(1) })
	ep1 := c.Current()
	same := []feature.Item{copyItem(items[1]), copyItem(items[4])}
	if err := c.Upsert(same); err != nil {
		t.Fatal(err)
	}
	if ep := c.Current(); ep != ep1 || swaps.Load() != 0 {
		t.Fatalf("netted-out batch over the threshold swapped: epoch %d -> %d, %d subscriber calls", ep1.ID, ep.ID, swaps.Load())
	}
	if st := c.Stats(); st.Pending {
		t.Fatalf("netted-out batch left the catalogue pending: %+v", st)
	}
}

// TestFlushNotStarvedByLaterBatches: Flush waits for the batches committed
// before it, not for a stream of later ones. Full rebuilds of 20k items
// outlast the 1 ms mutation cadence, so every build ends with newer batches
// committed; a Flush that chased the latest version would never return.
func TestFlushNotStarvedByLaterBatches(t *testing.T) {
	c, err := New(Config{
		Profile:        testProfile(),
		MaxPackageSize: 3,
		Items:          testItems(20000, 5),
		Coalesce:       5 * time.Millisecond,
		DeltaThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Upsert([]feature.Item{{ID: 30000, Values: []float64{0.5, 0.5}}}); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() {
		c.Flush()
		close(flushed)
	}()
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	rng := rand.New(rand.NewSource(6))
	for i := 0; ; i++ {
		select {
		case <-flushed:
			if _, ok := c.Current().DenseID(30000); !ok {
				t.Fatal("Flush returned before its batch was built")
			}
			return
		case <-deadline:
			t.Fatalf("Flush still blocked after 5 s of later batches (%d committed)", i)
		case <-tick.C:
			if err := c.Upsert([]feature.Item{{ID: 40000 + i%100, Values: []float64{rng.Float64(), rng.Float64()}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
