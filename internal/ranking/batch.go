// The per-vector step behind Rank, and the batched pipeline TKP and MPO run
// it through. Each distinct weight vector takes one step: probe the result
// cache under its epoch-keyed key, search on a miss, put the result. EXP
// takes one step under the pool's mean vector. TKP and MPO first
// canonicalize (optionally quantize) every sample and dedup, so each
// distinct canonical vector takes its step once and every duplicate shares
// the result. The steps run in sample order on the calling goroutine. The
// elicitation loop re-ranks the whole pool every round even though feedback
// invalidates only a fraction of samples and many survivors induce
// identical top-k lists; dedup and the cache make both kinds of redundancy
// free.
package ranking

import (
	"encoding/binary"
	"math"

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

// searcher runs the per-vector step for one Rank call and counts it in m.
type searcher struct {
	ix     *search.Index
	so     search.Options
	cache  *Cache // nil without a cache or with predicate options
	prefix string // epoch ‖ so.CacheKey() ‖ "|", ahead of every WeightKey
	m      *Metrics
}

// newSearcher prepares the step for a Rank call over n samples.
// opts.Metrics, when non-nil, is overwritten with this call's counters.
func newSearcher(ix *search.Index, so search.Options, opts Options, n int) *searcher {
	s := &searcher{ix: ix, so: so, m: opts.Metrics}
	if s.m == nil {
		s.m = &Metrics{}
	}
	*s.m = Metrics{Samples: n}
	if opts.Cache != nil {
		// Predicate options are not keyable: their results must not be
		// reused. The catalogue epoch the index was built from guards
		// every key: a search pinned to a superseded epoch Puts under
		// keys no later Get asks for (see Cache).
		optsKey, ok := opts.SearchKey, opts.SearchKey != ""
		if !ok {
			optsKey, ok = so.CacheKey()
		}
		if ok {
			var ep [8]byte
			binary.LittleEndian.PutUint64(ep[:], opts.Epoch)
			s.cache, s.prefix = opts.Cache, string(ep[:])+optsKey+"|"
		}
	}
	return s
}

// result returns the Top-k-Pkg result for the canonical vector w, whose
// WeightKey is key: from the cache when it holds one, else from a search
// whose result it then puts.
func (s *searcher) result(w []float64, key string) (search.Result, error) {
	s.m.Distinct++
	if s.cache != nil {
		key = s.prefix + key
		if res, ok := s.cache.Get(key); ok {
			s.m.CacheHits++
			return res, nil
		}
	}
	s.m.Searches++
	u, err := feature.NewUtility(s.ix.Space().Profile, w)
	if err != nil {
		return search.Result{}, err
	}
	res, err := s.ix.TopK(u, s.so)
	if err == nil && s.cache != nil {
		s.cache.Put(key, res)
	}
	return res, err
}

// groupResults returns TKP's or MPO's per-sample search results, indexed
// like samples: a canonical vector takes the per-vector step where it first
// appears, and every later duplicate shares that result. The first error
// stops the loop, so only the steps before it ran.
func groupResults(ix *search.Index, samples []sampling.Sample, so search.Options, opts Options) ([]search.Result, error) {
	s := newSearcher(ix, so, opts, len(samples))
	out := make([]search.Result, len(samples))
	first := make(map[string]int, len(samples)) // WeightKey → first sample with it
	for i := range samples {
		cw := Canonical(samples[i].W, opts.Quantum)
		k := WeightKey(cw)
		if j, ok := first[k]; ok {
			out[i] = out[j]
			continue
		}
		res, err := s.result(cw, k)
		if err != nil {
			return nil, err
		}
		first[k] = i
		out[i] = res
	}
	return out, nil
}
