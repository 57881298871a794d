package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/feature"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

// The shared result cache's serving invariant across catalogue swaps: a
// cache entry reachable under an epoch's key always serves the exact result
// a fresh Top-k-Pkg search on that epoch would produce — bit-identical
// packages and utility bits. Every swap drops the cache, so the only way to
// break it is a Put from a search still pinned to a superseded epoch; the
// catalogue-epoch key prefix is what keeps such a Put dead.

// stalePutConfig is liveConfig under TKP: the property is the per-sample
// pipeline's, whose searches key cache entries by the pool's own vectors.
func stalePutConfig() Config {
	cfg := liveConfig()
	cfg.Semantics = ranking.TKP
	return cfg
}

// liveSearchOpts is the per-sample search configuration stalePutConfig's
// engines key cache entries under (K=2, Sigma=2 ⇒ per-sample K=2).
func liveSearchOpts() search.Options {
	so := stalePutConfig().Search
	so.K = 2
	return so
}

// cacheKeyPrefix is the per-vector step's key prefix (see
// ranking.newSearcher): the catalogue epoch.
func cacheKeyPrefix(catEpoch uint64) string {
	var ep [8]byte
	binary.LittleEndian.PutUint64(ep[:], catEpoch)
	return string(ep[:])
}

type cacheKV struct {
	key string
	w   []float64
	res search.Result
}

// poolVectors returns the sample weight vectors of engines derived from sh
// with the given seeds. Without feedback an engine's pool is fixed by its
// seed, so these are every vector such engines ever search and cache.
func poolVectors(t *testing.T, sh *Shared, seeds ...int64) [][]float64 {
	t.Helper()
	var vecs [][]float64
	for _, seed := range seeds {
		eng, err := sh.NewEngine(seed)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := eng.Samples()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			vecs = append(vecs, ranking.Canonical(s.W, eng.cfg.WeightQuantum))
		}
	}
	return vecs
}

// cacheEntries looks up, under the catalogue-epoch key prefix, the entries cached for the given weight vectors.
func cacheEntries(t *testing.T, c *ranking.Cache, prefix string, vecs [][]float64) []cacheKV {
	t.Helper()
	optsKey, ok := liveSearchOpts().CacheKey()
	if !ok {
		t.Fatal("live search options are not cacheable")
	}
	var entries []cacheKV
	seen := make(map[string]bool, len(vecs))
	for _, w := range vecs {
		key := prefix + optsKey + "|" + ranking.WeightKey(w)
		if seen[key] {
			continue
		}
		seen[key] = true
		if res, ok := c.Get(key); ok {
			entries = append(entries, cacheKV{key, w, res})
		}
	}
	return entries
}

// verifyReachable re-searches every cache entry reachable under epoch ep
// for the engines' weight vectors (stale-keyed entries are unreachable by
// construction and skipped) and fails the test unless the cached packages
// are bit-identical to the fresh result. Returns the number of entries
// audited. Safe to run while other goroutines mutate the cache: each entry
// is read under the cache lock and compared against the immutable ep.
func verifyReachable(t *testing.T, c *ranking.Cache, ep *catalog.Epoch, so search.Options, vecs [][]float64) int {
	t.Helper()
	checked := 0
	for _, e := range cacheEntries(t, c, cacheKeyPrefix(ep.ID), vecs) {
		u, err := feature.NewUtility(ep.Space.Profile, e.w)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ep.Index.TopK(u, so)
		if err != nil {
			t.Fatal(err)
		}
		if len(fresh.Packages) != len(e.res.Packages) {
			t.Fatalf("epoch %d: cached entry w=%v has %d packages, fresh search %d",
				ep.ID, e.w, len(e.res.Packages), len(fresh.Packages))
		}
		for i := range fresh.Packages {
			g, f := e.res.Packages[i], fresh.Packages[i]
			if g.Pkg.Signature() != f.Pkg.Signature() || math.Float64bits(g.Utility) != math.Float64bits(f.Utility) {
				t.Fatalf("epoch %d: cached entry w=%v diverges at package %d: cached %s/%v, fresh %s/%v",
					ep.ID, e.w, i, g.Pkg.Signature(), g.Utility, f.Pkg.Signature(), f.Utility)
			}
		}
		checked++
	}
	return checked
}

// TestStalePutNeverServedAcrossSwaps: a Put from a search pinned to a
// superseded epoch is never served. First the interleaving the epoch key
// exists for, replayed deterministically — searches pin epoch N, the swap
// to N+1 (and its Invalidate) lands, the pinned searches then Put —
// then the same under real concurrency: the mutating goroutine swaps while
// engines, some mid-Recommend on the epoch they resolved at entry, Get and
// Put continuously. Run under -race this exercises the locking; the sweeps
// assert no reachable entry ever differs from a fresh search on its epoch.
func TestStalePutNeverServedAcrossSwaps(t *testing.T) {
	cat := liveCatalog(t, -1, 200)
	sh, err := NewLiveShared(stalePutConfig(), cat)
	if err != nil {
		t.Fatal(err)
	}
	cache := sh.SearchCache()
	so := liveSearchOpts()
	rng := rand.New(rand.NewSource(91))

	// Every vector the engines below search: the shared seed's (mustSlate)
	// and the racers' seeds.
	vecs := poolVectors(t, sh, 0, 1, 2, 3)

	// The shared-seed engine (mustSlate's) pins epoch N; its ranking runs,
	// with Recommend's options, only after the swap to N+1 and its
	// Invalidate, so every Put it makes comes from a superseded epoch.
	eng, err := sh.NewEngine(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ensureSamples(); err != nil {
		t.Fatal(err)
	}
	epN := sh.epoch()
	batch := make([]feature.Item, len(cat.Current().Items())) // reprice all: every top-k changes
	for i := range batch {
		batch[i] = feature.Item{ID: epN.ids.StableID(i), Values: []float64{rng.Float64(), rng.Float64()}}
	}
	if err := cat.Upsert(batch); err != nil { // synchronous swap + Invalidate
		t.Fatal(err)
	}
	if _, err := ranking.Rank(epN.ix, eng.pool.Samples, eng.cfg.Semantics, ranking.Options{
		K: eng.cfg.K, Sigma: eng.cfg.K, Search: eng.cfg.Search, Quantum: eng.cfg.WeightQuantum,
		Cache: cache, Epoch: epN.id,
	}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("vacuous: the pinned search cached nothing")
	}
	cfg := stalePutConfig()
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
	sameSlate(t, "after stale Puts", mustSlate(t, sh), want) // same seed: probes the pinned weight vectors
	pinned := cacheEntries(t, cache, cacheKeyPrefix(epN.id), vecs)
	if len(pinned) == 0 {
		t.Fatal("vacuous: the pinned search's entries are not keyed by its epoch")
	}
	live := cacheKeyPrefix(cat.Current().ID)
	for _, e := range pinned {
		if _, ok := cache.Get(live + e.key[len(live):]); !ok {
			t.Fatal("vacuous: the post-swap Recommend did not probe the pinned weight vectors")
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			eng, err := sh.NewEngine(seed)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Recommend(); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	audited := 0
	for i := 0; i < 40; i++ {
		time.Sleep(2 * time.Millisecond) // let Recommends interleave between swaps
		if i%8 == 7 {
			audited += verifyReachable(t, cache, cat.Current(), so, vecs)
		}
		ep := cat.Current()
		j := rng.Intn(len(ep.Items()))
		it := ep.Items()[j]
		it.ID = ep.IDs().StableID(j)
		it.Values = []float64{rng.Float64(), rng.Float64()}
		if err := cat.Upsert([]feature.Item{it}); err != nil { // synchronous swap + Invalidate
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	mustSlate(t, sh) // resident entries on the final epoch beside the racers' late Puts
	if audited += verifyReachable(t, cache, cat.Current(), so, vecs); audited == 0 {
		t.Fatalf("vacuous run: no entries audited, stats %+v", cache.Stats())
	}
}
