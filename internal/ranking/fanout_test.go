package ranking

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// rankAt runs Rank at the given GOMAXPROCS.
func rankAt(procs int, ix *search.Index, samples []sampling.Sample, sem Semantics, opts Options) ([]Ranked, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Rank(ix, samples, sem, opts)
}

// servePool is the serving shape: uniform 1k items under the mixed
// sum/avg/max/min/sum profile at φ 3, 30 weight vectors from the
// origin-centred prior, K 3 and the serving beam.
func servePool(t *testing.T) (*search.Index, []sampling.Sample, Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(28))
	profile := feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum)
	sp, err := feature.NewSpace(dataset.UNI(1000, 5, rng), profile, 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]sampling.Sample, 30)
	for i := range samples {
		w := make([]float64, 5)
		for j := range w {
			w[j] = 0.5 * rng.NormFloat64()
		}
		samples[i] = sampling.Sample{W: w, Q: 1}
	}
	return search.NewIndex(sp), samples, Options{K: 3, Search: search.Options{MaxQueue: 128, MaxAccessed: 500}}
}

// countHelpers installs a helperStarted hook for the rest of the test. It
// returns the number of helper starts and the highest count a start raised
// the search count to.
func countHelpers(t *testing.T) (starts, highest *atomic.Int64) {
	starts, highest = new(atomic.Int64), new(atomic.Int64)
	helperStarted = func(count int64) {
		starts.Add(1)
		for {
			h := highest.Load()
			if count <= h || highest.CompareAndSwap(h, count) {
				return
			}
		}
	}
	t.Cleanup(func() { helperStarted = nil })
	return starts, highest
}

// TestParallelDeterminism: slates, scores included, are bit-identical at
// GOMAXPROCS 1, 2 and 4, with and without a result cache, under all three
// semantics — aggregation runs in sample order whichever worker ran a
// search.
func TestParallelDeterminism(t *testing.T) {
	ix, samples, opts := servePool(t)
	for _, sem := range []Semantics{EXP, TKP, MPO} {
		for _, cached := range []bool{false, true} {
			var base []Ranked
			for _, procs := range []int{1, 2, 4} {
				o := opts
				if cached {
					o.Cache = NewCache(64) // fresh, so every run searches
				}
				got, err := rankAt(procs, ix, samples, sem, o)
				if err != nil {
					t.Fatalf("%v cached=%v procs %d: %v", sem, cached, procs, err)
				}
				if base == nil {
					base = got
				} else if !sameRanked(got, base) {
					t.Errorf("%v cached=%v: procs %d slate %s != procs 1 slate %s",
						sem, cached, procs, describe(got), describe(base))
				}
			}
		}
	}
}

// TestFanOutBudget: with 8 callers ranking at once on GOMAXPROCS 4, no
// helper start pushes the search count above GOMAXPROCS, every slate equals
// the one-core slate, and the count is back to 0 once all callers return.
func TestFanOutBudget(t *testing.T) {
	const procs, callers = 4, 8
	ix, samples, opts := servePool(t)
	want, err := rankAt(1, ix, samples, TKP, opts)
	if err != nil {
		t.Fatal(err)
	}
	starts, highest := countHelpers(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Rank(ix, samples, TKP, opts)
			if err != nil {
				t.Error(err)
			} else if !sameRanked(got, want) {
				t.Errorf("contended slate %s != one-core slate %s", describe(got), describe(want))
			}
		}()
	}
	wg.Wait()
	if h := highest.Load(); h > procs {
		t.Errorf("a helper start raised the search count to %d, above GOMAXPROCS %d", h, procs)
	}
	if n := searching.Load(); n != 0 {
		t.Errorf("search count %d after every caller returned, want 0", n)
	}
	t.Logf("%d helper starts across %d callers", starts.Load(), callers)
}

// TestFanOutInlineOnly: at GOMAXPROCS 1 no helper starts, so every search
// runs on its caller; at GOMAXPROCS 4 a lone caller starts three.
func TestFanOutInlineOnly(t *testing.T) {
	ix, samples, opts := servePool(t)
	starts, highest := countHelpers(t)
	if _, err := rankAt(1, ix, samples, TKP, opts); err != nil {
		t.Fatal(err)
	}
	if n := starts.Load(); n != 0 {
		t.Errorf("%d helpers started at GOMAXPROCS 1, want 0", n)
	}
	if _, err := rankAt(4, ix, samples, TKP, opts); err != nil {
		t.Fatal(err)
	}
	if n, h := starts.Load(), highest.Load(); n != 3 || h != 4 {
		t.Errorf("lone caller at GOMAXPROCS 4: %d helpers raising the count to %d, want 3 and 4", n, h)
	}
}

// oneItemPool is a one-item space at φ 1, where a search calls its
// Candidate predicate exactly once, and n distinct positive weight vectors.
func oneItemPool(t *testing.T, n int) (*search.Index, []sampling.Sample) {
	t.Helper()
	sp, err := feature.NewSpace([]feature.Item{{ID: 0, Values: []float64{0.5, 0.25}}},
		feature.SimpleProfile(feature.AggSum, feature.AggSum), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	samples := make([]sampling.Sample, n)
	for i := range samples {
		samples[i] = sampling.Sample{W: []float64{0.1 + rng.Float64(), 0.1 + rng.Float64()}, Q: 1}
	}
	return search.NewIndex(sp), samples
}

// TestFanOutHelperRetires: a helper retires before its next search once
// another caller starts searching. On GOMAXPROCS 2, caller A and one helper
// each park in a search until the test releases them. Caller B then parks
// in a search of its own, raising the count to 3. Once A's two searches
// finish, the helper must retire, so the count settles at 2 (A's caller and
// B's) while A's caller goes on alone.
func TestFanOutHelperRetires(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ix, samples := oneItemPool(t, 30)
	var (
		wg      sync.WaitGroup
		entered atomic.Int64
		aIn     = make(chan struct{}, len(samples))
		bIn     = make(chan struct{}, 1)
		aGo     = make(chan struct{}) // closed: A's first two searches finish
		free    = make(chan struct{}) // closed: every search finishes
	)
	defer wg.Wait()
	defer close(free)
	await := func(ch chan struct{}, who string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never started a search", who)
		}
	}
	optsA := Options{K: 1, Search: exactOptions}
	optsA.Search.Candidate = func(*feature.Space, pkgspace.Package) bool {
		first := entered.Add(1) <= 2
		aIn <- struct{}{}
		if first {
			select {
			case <-aGo:
			case <-free:
			}
		} else {
			<-free
		}
		return true
	}
	optsB := Options{K: 1, Search: exactOptions}
	optsB.Search.Candidate = func(*feature.Space, pkgspace.Package) bool {
		bIn <- struct{}{}
		<-free
		return true
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Rank(ix, samples, TKP, optsA); err != nil {
			t.Error(err)
		}
	}()
	await(aIn, "caller A")
	await(aIn, "A's helper")
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Rank(ix, samples[:1], TKP, optsB); err != nil {
			t.Error(err)
		}
	}()
	await(bIn, "caller B")
	close(aGo)
	deadline := time.Now().Add(10 * time.Second)
	for searching.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("search count stuck at %d: A's helper kept searching after B started", searching.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanOutStopsAtFirstError: a failed search stops every worker from
// claiming another. The first of 30 samples has the wrong dimension. Every
// other search calls the counting predicate once and sleeps in it, so the
// failure lands while at most GOMAXPROCS−1 searches are in flight, and only
// those may complete. The predicate also keeps the cache out of the way.
func TestFanOutStopsAtFirstError(t *testing.T) {
	const procs = 4
	ix, samples := oneItemPool(t, 30)
	samples[0].W = []float64{1, 1, 1}
	var searched atomic.Int64
	opts := Options{K: 1, Cache: NewCache(64), Search: exactOptions}
	opts.Search.Candidate = func(*feature.Space, pkgspace.Package) bool {
		searched.Add(1)
		time.Sleep(10 * time.Millisecond)
		return true
	}
	if _, err := rankAt(procs, ix, samples[1:], TKP, opts); err != nil {
		t.Fatal(err)
	}
	if n := searched.Load(); n != 29 {
		t.Fatalf("setup: 29 searches called the predicate %d times, want once each", n)
	}

	_, wantErr := feature.NewUtility(ix.Space().Profile, samples[0].W)
	searched.Store(0)
	_, err := rankAt(procs, ix, samples, TKP, opts)
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Rank error = %v, want %v", err, wantErr)
	}
	if n := searched.Load(); n > procs-1 {
		t.Errorf("%d searches completed after the failure, want at most %d", n, procs-1)
	}
}
