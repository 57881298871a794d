// Package ranking ranks packages over a pool of weight-vector samples
// under the three ranking semantics of the paper: expected utility (EXP,
// Definition 2), probability of being a top-σ package (TKP, Definition 3),
// and most probable ordering (MPO, Definition 4), with importance weights
// q(w) replacing unit counts for weighted samples (§3.2.1). U(p, w) =
// w · v(p) is linear in w, so EXP's expected utility is U(p, w̄) under the
// pool's mean vector w̄ = Σ q·w / Σ q: one Top-k-Pkg search. TKP and MPO
// combine per-sample Top-k-Pkg results (§4). Every search runs on the
// calling goroutine; the result cache is the one structure shared across
// callers.
package ranking

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"toppkg/internal/pkgspace"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// Semantics selects how the sample pool ranks packages.
type Semantics uint8

// The three ranking semantics of §2.2.
const (
	// EXP ranks packages by their expected utility over the pool: the
	// utility under the pool's mean weight vector.
	EXP Semantics = iota
	// TKP ranks packages by the probability of appearing among the top-σ
	// packages.
	TKP
	// MPO returns the top-k list with the highest probability of being
	// exactly the top-k list.
	MPO
)

// String names the semantics.
func (s Semantics) String() string {
	switch s {
	case EXP:
		return "EXP"
	case TKP:
		return "TKP"
	case MPO:
		return "MPO"
	}
	return fmt.Sprintf("Semantics(%d)", uint8(s))
}

// ParseSemantics converts "exp"/"tkp"/"mpo" to a Semantics.
func ParseSemantics(s string) (Semantics, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "EXP":
		return EXP, nil
	case "TKP":
		return TKP, nil
	case "MPO":
		return MPO, nil
	}
	return EXP, fmt.Errorf("ranking: unknown semantics %q", s)
}

// Ranked is one recommended package with its semantics-dependent score:
// the pool's exact expected utility (EXP), estimated top-σ probability
// (TKP), or the probability of the whole returned list (MPO, equal for all
// entries).
type Ranked struct {
	Pkg   pkgspace.Package
	Score float64
}

// Options configures the aggregation.
type Options struct {
	// K is the length of the final recommendation list.
	K int
	// Sigma is TKP's σ (top-σ membership threshold); defaults to K.
	Sigma int
	// Search configures the Top-k-Pkg runs; Search.K is set internally.
	Search search.Options
	// Quantum rounds each coordinate of a TKP or MPO sample to its nearest
	// multiple before the search (see Canonical), so near-identical samples
	// collapse into one Top-k-Pkg run. 0 disables rounding: only
	// bit-identical samples merge, keeping slates exactly equal to the
	// unbatched path. EXP's mean vector is searched exactly.
	Quantum float64
	// Cache reuses per-vector search results across Rank calls — e.g.
	// samples that survived a feedback round reuse last round's packages.
	// Nil disables caching (dedup within one call always happens). Search
	// options carrying predicate functions bypass the cache; see
	// search.Options.CacheKey.
	Cache *Cache
	// Epoch identifies the catalogue epoch the index was built from; it is
	// folded into every cache key, so results computed against one epoch
	// can never be served for another even when a swap races this call.
	// Static catalogues pass 0. A Cache must serve one catalogue only.
	Epoch uint64
	// Metrics, when non-nil, is overwritten with the pipeline counters of
	// this call.
	Metrics *Metrics
}

// Rank computes the top-k packages under the given semantics from a pool of
// weight-vector samples. Each sample contributes its importance weight,
// which must be finite and non-negative, with a positive, finite sum. EXP
// runs one search (see expected); TKP and MPO search per sample through
// the batched pipeline (dedup → cache, see groupResults). Every search runs
// on the caller, in sample order, so the result is identical to the
// one-search-per-sample path whenever Quantum is 0.
func Rank(ix *search.Index, samples []sampling.Sample, sem Semantics, opts Options) ([]Ranked, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("ranking: K must be positive, got %d", opts.K)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("ranking: no samples")
	}
	// Σq normalises every score. One weight of 0 is legal: an importance
	// weight can underflow.
	var totalQ float64
	for i, s := range samples {
		if !(s.Q >= 0) || math.IsInf(s.Q, 1) {
			return nil, fmt.Errorf("ranking: sample %d has importance weight %g", i, s.Q)
		}
		totalQ += s.Q
	}
	if !(totalQ > 0) || math.IsInf(totalQ, 1) {
		return nil, fmt.Errorf("ranking: importance weights sum to %g", totalQ)
	}
	if sem == EXP {
		return expected(ix, samples, totalQ, opts)
	}
	results, err := groupResults(ix, samples, searchOptions(sem, opts), opts)
	if err != nil {
		return nil, err
	}
	return aggregate(samples, results, sem, opts)
}

// expected ranks under EXP: the top-K of one search under w̄, each score the
// pool's exact expected utility U(p, w̄). w̄ is summed in sample order, so a
// refresh of an unchanged pool probes the cache with the same bits, and it
// is searched unquantized. The metrics count the pool's samples as ranked
// and w̄ as the one distinct vector.
func expected(ix *search.Index, samples []sampling.Sample, totalQ float64, opts Options) ([]Ranked, error) {
	mean := make([]float64, ix.Space().Profile.Dims())
	for i, s := range samples {
		if len(s.W) != len(mean) {
			return nil, fmt.Errorf("ranking: sample %d has %d dims, profile has %d", i, len(s.W), len(mean))
		}
		for j, w := range s.W {
			mean[j] += s.Q * w
		}
	}
	for j := range mean {
		mean[j] /= totalQ
	}
	res, err := newSearcher(ix, searchOptions(EXP, opts), opts, len(samples)).result(mean, WeightKey(mean))
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(res.Packages))
	for i, sc := range res.Packages {
		out[i] = Ranked{Pkg: sc.Pkg, Score: sc.Utility}
	}
	return out, nil
}

// searchOptions derives the concrete search options: TKP widens each
// per-sample list to σ when σ exceeds K.
func searchOptions(sem Semantics, opts Options) search.Options {
	so := opts.Search
	so.K = opts.K
	if sem == TKP && opts.Sigma > so.K {
		so.K = opts.Sigma
	}
	return so
}

// aggregate combines per-sample top-k results (indexed like samples) into
// the final TKP or MPO recommendation list.
func aggregate(samples []sampling.Sample, results []search.Result, sem Semantics, opts Options) ([]Ranked, error) {
	sigma := opts.Sigma
	if sigma <= 0 {
		sigma = opts.K
	}
	type acc struct {
		pkg    pkgspace.Package
		weight float64 // Σ q over samples whose top-σ holds the package
	}
	accs := make(map[string]*acc)      // TKP
	lists := make(map[string]*listAcc) // MPO
	var totalQ float64

	for i := range samples {
		res := results[i]
		q := samples[i].Q
		totalQ += q
		switch sem {
		case TKP:
			pkgs := res.Packages
			if len(pkgs) > sigma {
				// TKP counts membership in the per-sample top-σ only.
				pkgs = pkgs[:sigma]
			}
			for _, sc := range pkgs {
				sig := sc.Pkg.Signature()
				a := accs[sig]
				if a == nil {
					a = &acc{pkg: sc.Pkg}
					accs[sig] = a
				}
				a.weight += q
			}
		case MPO:
			// MPO's lists are the per-sample top-K prefix.
			pkgs := res.Packages
			if len(pkgs) > opts.K {
				pkgs = pkgs[:opts.K]
			}
			key := listKey(pkgs)
			la := lists[key]
			if la == nil {
				la = &listAcc{pkgs: pkgs}
				lists[key] = la
			}
			la.weight += q
		}
	}

	switch sem {
	case TKP:
		out := make([]Ranked, 0, len(accs))
		for _, a := range accs {
			out = append(out, Ranked{Pkg: a.pkg, Score: a.weight / totalQ})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Score != out[j].Score {
				return out[i].Score > out[j].Score
			}
			return pkgspace.Less(out[i].Pkg, out[j].Pkg)
		})
		if len(out) > opts.K {
			out = out[:opts.K]
		}
		return out, nil
	default: // MPO
		var best *listAcc
		var bestKey string
		for key, la := range lists {
			if best == nil || la.weight > best.weight ||
				(la.weight == best.weight && key < bestKey) {
				best, bestKey = la, key
			}
		}
		if best == nil {
			return nil, fmt.Errorf("ranking: MPO found no candidate list")
		}
		out := make([]Ranked, len(best.pkgs))
		for i, sc := range best.pkgs {
			out[i] = Ranked{Pkg: sc.Pkg, Score: best.weight / totalQ}
		}
		return out, nil
	}
}

type listAcc struct {
	pkgs   []pkgspace.Scored
	weight float64
}

func listKey(pkgs []pkgspace.Scored) string {
	parts := make([]string, len(pkgs))
	for i, sc := range pkgs {
		parts[i] = sc.Pkg.Signature()
	}
	return strings.Join(parts, ";")
}

// Signatures extracts the package signatures of a ranked list, a
// convenience for comparing lists across samplers and semantics (§5.4).
func Signatures(xs []Ranked) []string {
	out := make([]string, len(xs))
	for i := range xs {
		out[i] = xs[i].Pkg.Signature()
	}
	return out
}
