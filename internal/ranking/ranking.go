// Package ranking aggregates per-sample top-k package results into a final
// recommendation list under the three ranking semantics of the paper:
// expected utility (EXP, Definition 2), probability of being a top-σ
// package (TKP, Definition 3), and most probable ordering (MPO,
// Definition 4). Per §4: for each sampled weight vector w, Top-k-Pkg
// produces the best packages under w; the semantics differ only in how
// those per-sample results are combined, with importance weights q(w)
// replacing unit counts for weighted samples (§3.2.1).
package ranking

import (
	"fmt"
	"sort"
	"strings"

	"toppkg/internal/pkgspace"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// Semantics selects how per-sample winners are aggregated.
type Semantics uint8

// The three ranking semantics of §2.2.
const (
	// EXP ranks packages by (sample-estimated) expected utility.
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
// estimated expected utility (EXP), estimated top-σ probability (TKP), or
// the probability of the whole returned list (MPO, equal for all entries).
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
	// PerSampleK is how many packages Top-k-Pkg retrieves per sample
	// (default max(K, Sigma)). EXP's estimator (§4) averages utilities over
	// the per-sample lists a package appears in, so a larger PerSampleK
	// reduces its bias at extra search cost.
	PerSampleK int
	// Search configures the per-sample Top-k-Pkg runs; Search.K is set
	// internally.
	Search search.Options
	// Quantum rounds each weight coordinate to its nearest multiple before
	// the search (see Canonical), so near-identical samples collapse into
	// one Top-k-Pkg run. 0 disables rounding: only bit-identical samples
	// merge, keeping slates exactly equal to the unbatched path.
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
// weight-vector samples. Each sample contributes its importance weight.
// Per-sample searches run through the batched pipeline (dedup → cache →
// search, see groupResults). The caller runs them itself, helped by
// goroutines on cores no other search holds; helpers step back when another
// caller starts searching, and at GOMAXPROCS 1 none start (see
// runSearches). Aggregation runs in sample order, so the result is the same
// at every GOMAXPROCS and identical to the one-search-per-sample path
// whenever Quantum is 0.
func Rank(ix *search.Index, samples []sampling.Sample, sem Semantics, opts Options) ([]Ranked, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("ranking: K must be positive, got %d", opts.K)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("ranking: no samples")
	}
	results, err := groupResults(ix, ix.Space().Profile, samples, searchOptions(sem, opts), opts)
	if err != nil {
		return nil, err
	}
	return aggregate(samples, results, sem, opts)
}

// searchOptions derives the concrete per-sample search options: PerSampleK
// widens the per-sample lists beyond K when the semantics need it.
func searchOptions(sem Semantics, opts Options) search.Options {
	sigma := opts.Sigma
	if sigma <= 0 {
		sigma = opts.K
	}
	perSample := opts.K
	if sem == TKP && sigma > perSample {
		perSample = sigma
	}
	if opts.PerSampleK > perSample {
		perSample = opts.PerSampleK
	}
	so := opts.Search
	so.K = perSample
	return so
}

// aggregate combines per-sample top-k results (indexed like samples) into
// the final recommendation list under the given semantics.
func aggregate(samples []sampling.Sample, results []search.Result, sem Semantics, opts Options) ([]Ranked, error) {
	sigma := opts.Sigma
	if sigma <= 0 {
		sigma = opts.K
	}
	type acc struct {
		pkg    pkgspace.Package
		sumQU  float64 // Σ q·U over samples where the package appears (EXP)
		weight float64 // Σ q over samples where the package appears
	}
	accs := make(map[string]*acc)
	lists := make(map[string]*listAcc) // MPO
	var totalQ float64

	for i := range samples {
		res := results[i]
		q := samples[i].Q
		totalQ += q
		switch sem {
		case EXP, TKP:
			pkgs := res.Packages
			if sem == TKP && len(pkgs) > sigma {
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
				a.sumQU += q * sc.Utility
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
	case EXP:
		out := make([]Ranked, 0, len(accs))
		for _, a := range accs {
			if a.weight == 0 {
				continue
			}
			out = append(out, Ranked{Pkg: a.pkg, Score: a.sumQU / a.weight})
		}
		sortRanked(out)
		return head(out, opts.K), nil
	case TKP:
		out := make([]Ranked, 0, len(accs))
		for _, a := range accs {
			score := a.weight
			if totalQ > 0 {
				score /= totalQ
			}
			out = append(out, Ranked{Pkg: a.pkg, Score: score})
		}
		sortRanked(out)
		return head(out, opts.K), nil
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
		prob := best.weight
		if totalQ > 0 {
			prob /= totalQ
		}
		out := make([]Ranked, 0, opts.K)
		for i, sc := range best.pkgs {
			if i >= opts.K {
				break
			}
			out = append(out, Ranked{Pkg: sc.Pkg, Score: prob})
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

func sortRanked(xs []Ranked) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Score != xs[j].Score {
			return xs[i].Score > xs[j].Score
		}
		return pkgspace.Less(xs[i].Pkg, xs[j].Pkg)
	})
}

func head(xs []Ranked, k int) []Ranked {
	if len(xs) > k {
		xs = xs[:k]
	}
	return xs
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
