// The batched per-sample execution pipeline behind Rank's TKP and MPO:
// sample weight vectors are canonicalized (optionally quantized),
// deduplicated so each distinct vector runs Top-k-Pkg once, probed against
// the result cache, and only the surviving searches run — on the calling
// goroutine, plus helpers on cores no other search holds (see
// runSearches). Results fan back out to every duplicate, and aggregation
// runs in sample order, so the final slate does not depend on which
// goroutine ran which search. The elicitation loop re-ranks the whole pool
// every round even though feedback invalidates only a fraction of samples
// and many survivors induce identical top-k lists; this pipeline makes
// both kinds of redundancy free. EXP's one mean vector takes it too.
package ranking

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"toppkg/internal/feature"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// Metrics reports what the batched pipeline did during one Rank call.
type Metrics struct {
	// Samples is the number of weight vectors ranked.
	Samples int
	// Distinct is the number of distinct canonical vectors after
	// quantization and dedup; every duplicate rides along for free.
	Distinct int
	// CacheHits is how many distinct vectors were served from the cache.
	CacheHits int
	// Searches is how many Top-k-Pkg runs actually executed.
	Searches int
}

// Canonical maps a weight vector to its canonical form: each coordinate
// rounded to the nearest multiple of quantum. quantum <= 0 is the identity
// (only bit-identical vectors collapse). The search runs on the canonical
// vector, so every vector mapping to one canonical form shares one
// bit-identical result.
func Canonical(w []float64, quantum float64) []float64 {
	if quantum <= 0 {
		return w
	}
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = math.Round(v/quantum) * quantum
	}
	return out
}

// WeightKey encodes a weight vector byte-exactly (IEEE-754 bits, with -0
// folded into +0 — the search treats them identically).
func WeightKey(w []float64) string {
	b := make([]byte, 8*len(w))
	for i, v := range w {
		if v == 0 {
			v = 0 // fold -0 into +0
		}
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

// groupResults produces the per-sample search results for Rank through the
// batched pipeline, returning them indexed like samples. opts.Metrics, when
// non-nil, is overwritten with this call's counters.
func groupResults(ix *search.Index, profile *feature.Profile, samples []sampling.Sample, so search.Options, opts Options) ([]search.Result, error) {
	m := opts.Metrics
	if m == nil {
		m = &Metrics{}
	}
	*m = Metrics{Samples: len(samples)}

	// Canonicalize and dedup: groupOf[i] is sample i's group, reps[g] the
	// canonical vector searched for group g.
	groupOf := make([]int, len(samples))
	var reps [][]float64
	var keys []string
	index := make(map[string]int, len(samples))
	for i := range samples {
		cw := Canonical(samples[i].W, opts.Quantum)
		k := WeightKey(cw)
		g, ok := index[k]
		if !ok {
			g = len(reps)
			index[k] = g
			reps = append(reps, cw)
			keys = append(keys, k)
		}
		groupOf[i] = g
	}
	m.Distinct = len(reps)

	// Probe the cache; only missing groups go to the workers.
	results := make([]search.Result, len(reps))
	todo := make([]int, 0, len(reps))
	cache := opts.Cache
	var keyPrefix string
	if cache != nil {
		optsKey, keyable := so.CacheKey()
		if !keyable {
			cache = nil // predicate options: results must not be reused
		} else {
			// The catalogue epoch the index was built from guards every
			// key: a search pinned to a superseded epoch Puts under keys
			// no later Get asks for (see Cache).
			var ep [8]byte
			binary.LittleEndian.PutUint64(ep[:], opts.Epoch)
			keyPrefix = string(ep[:]) + optsKey + "|"
		}
	}
	for g := range reps {
		if cache != nil {
			keys[g] = keyPrefix + keys[g] // the full key, for Get and Put alike
			if res, ok := cache.Get(keys[g]); ok {
				results[g] = res
				m.CacheHits++
				continue
			}
		}
		todo = append(todo, g)
	}
	m.Searches = len(todo)

	if err := runSearches(ix, profile, reps, todo, results, so); err != nil {
		return nil, err
	}
	if cache != nil {
		for _, g := range todo {
			cache.Put(keys[g], results[g])
		}
	}

	// Fan the group results back out to every sample.
	out := make([]search.Result, len(samples))
	for i, g := range groupOf {
		out[i] = results[g]
	}
	return out, nil
}

// searching counts, process-wide, the goroutines running per-sample
// searches: every runSearches caller with searches left to claim, plus its
// helpers. It is the fan-out's only view of load.
var searching atomic.Int64

// helperStarted, when a test sets it, is called on every helper start with
// the count that helper's claim raised searching to.
var helperStarted func(count int64)

// runSearches executes Top-k-Pkg for the groups listed in todo, filling
// results[g]. The searches are independent. The caller always searches
// inline, and helpers join it on idle cores only: a helper starts only
// while searching is below GOMAXPROCS, claimed by compare-and-swap, so it
// never takes a core another search holds. Before each search it claims, a
// helper checks the count again and retires once it is above GOMAXPROCS,
// i.e. once another request has started searching. At GOMAXPROCS 1 no
// helper starts and todo runs in order on the caller. The first error stops
// every worker from claiming another search. Callers aggregate in sample
// order, so slates do not depend on which worker ran which search.
func runSearches(ix *search.Index, profile *feature.Profile, reps [][]float64, todo []int, results []search.Result, so search.Options) error {
	if len(todo) == 0 {
		return nil
	}
	procs := int64(runtime.GOMAXPROCS(0))
	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // todo[next] is the next search to claim
		failed   atomic.Bool
		firstErr error // written once, by the worker that sets failed
	)
	work := func(helper bool) {
		for !failed.Load() && !(helper && searching.Load() > procs) {
			i := int(next.Add(1) - 1)
			if i >= len(todo) {
				return
			}
			g := todo[i]
			u, err := feature.NewUtility(profile, reps[g])
			if err == nil {
				results[g], err = ix.TopK(u, so)
			}
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					firstErr = err
				}
				return
			}
		}
	}
	searching.Add(1)
	for helpers := 0; helpers < len(todo)-1; {
		n := searching.Load()
		if n >= procs {
			break
		}
		if !searching.CompareAndSwap(n, n+1) {
			continue
		}
		if helperStarted != nil {
			helperStarted(n + 1)
		}
		helpers++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer searching.Add(-1)
			work(true)
		}()
	}
	work(false)
	searching.Add(-1)
	wg.Wait()
	return firstErr
}
