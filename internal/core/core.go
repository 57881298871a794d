// Package core implements the package recommender system of the paper: a
// linear utility over aggregate package features whose weights are
// uncertain (a Gaussian-mixture prior), learned through implicit feedback
// (clicks on recommended packages), with constrained sampling standing in
// for the closed-form posterior and Top-k-Pkg generating recommendations
// under a configurable ranking semantics.
//
// Typical use:
//
//	eng, err := core.New(core.Config{Items: items, Profile: profile})
//	slate, err := eng.Recommend()            // top packages + exploration
//	err = eng.Click(slate.All[2], slate.All) // user clicked the third
//	slate, err = eng.Recommend()             // now personalized
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"toppkg/internal/catalog"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/maintain"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/ranking"
	"toppkg/internal/sampling"
	"toppkg/internal/search"
)

// Config configures an Engine. Zero values select the paper's defaults, and
// New rejects negative sizes and a Psi outside [0, 1]. The rest of the
// paper's choices are fixed: the sampler (sampling.Draw: exact rejection
// draws from the prior while they pay, the §3.2.2 Metropolis chain at its
// fixed tuning otherwise), TKP's σ = K, transitive reduction of the
// preference graph (§3.3) and the hybrid maintenance checker at γ = 0.025
// (§3.4), run once per click over all the preferences it adds.
type Config struct {
	// Items is the item set T (required).
	Items []feature.Item
	// Profile is the aggregate feature profile V (required).
	Profile *feature.Profile
	// MaxPackageSize is φ (default 5).
	MaxPackageSize int
	// K is the number of recommended packages per slate (default 5).
	K int
	// RandomCount is the number of exploration packages added to each slate
	// (default K; the paper shows 5 recommended + 5 random).
	RandomCount int
	// Semantics is the ranking semantics (default EXP).
	Semantics ranking.Semantics
	// SampleCount is the size of the weight-vector sample pool
	// (default 1000).
	SampleCount int
	// Prior overrides the weight prior; by default a single Gaussian
	// centered at the origin with std 0.5 per dimension.
	Prior *gaussmix.Mixture
	// Psi is the feedback noise model of §7: the probability any single
	// feedback is correct. Default 1 (noise-free).
	Psi float64
	// Search tunes Recommend's Top-k-Pkg runs (K is set internally).
	Search search.Options
	// SearchCacheSize bounds the per-catalogue Top-k-Pkg result cache
	// shared by every engine derived from one Shared (0 selects
	// ranking.DefaultCacheSize; negative disables caching). Caching is
	// sound because a result depends only on the immutable index, the
	// weight vector, and the search options: an EXP refresh of an unchanged
	// pool, or a TKP/MPO sample surviving feedback, reuses its packages.
	SearchCacheSize int
	// WeightQuantum quantizes TKP's and MPO's sample weight vectors before
	// the per-sample search (see ranking.Options.Quantum); EXP's mean
	// vector is searched exactly. 0 keeps slates bit-identical to the
	// unbatched path; > 0 trades exactness for more dedup/cache hits.
	WeightQuantum float64
	// Seed seeds the engine's random stream (default 1): a splitmix64
	// generator, so equal seeds replay equal sessions. Shared.NewEngine
	// overrides it per session (session.SeedFor derives one per ID).
	Seed int64
}

// Stats reports the engine's cumulative activity.
type Stats struct {
	// Feedback is the number of pairwise preferences recorded.
	Feedback int
	// ConstraintsActive is the size of the reduced constraint set in use,
	// counted by the preference graph as edges arrive (never derived to be
	// read).
	ConstraintsActive int
	// CyclesSkipped counts preferences dropped because they contradicted
	// earlier feedback.
	CyclesSkipped int
	// SamplesReplaced counts pool samples invalidated by feedback and
	// redrawn (§3.4).
	SamplesReplaced int
	// ReplacementFailures counts clicks and feedbacks whose violating
	// samples could not be replaced because the valid region has vanished:
	// under Psi = 1 the constraint set's cone has no interior point, e.g.
	// after inconsistent feedback from a noisy user. The stale samples are
	// kept; with Psi < 1 the noise model tolerates such feedback (§7) and
	// the count stays 0.
	ReplacementFailures int
	// InitialSampleFallbacks counts first pools the sampler could not draw
	// — under Psi = 1 the accumulated feedback's cone has no interior
	// point, e.g. after catalogue churn moved the package vectors of old
	// preferences into contradiction — and that were completed with
	// constraint-free prior draws instead of failing the recommend. With
	// Psi < 1 it stays 0.
	InitialSampleFallbacks int
	// MaintenanceWork accumulates the checker's sample examinations.
	MaintenanceWork int
	// SampleAttempts accumulates raw sampler draws.
	SampleAttempts int
	// RestoreDroppedItems counts item occurrences silently removed from
	// restored preferences because the item had vanished from the catalogue
	// between snapshot and restore; RestoreDroppedPrefs counts preferences
	// dropped entirely (a side emptied out or holds more than φ items, both
	// sides collapsed to the same package, or the remapped preference
	// merged with or contradicted a surviving one). Both accumulate across
	// a session's restores — nonzero values are silent preference loss an
	// operator should be able to see.
	RestoreDroppedItems int
	RestoreDroppedPrefs int
	// RankSamples, RankDistinct, RankCacheHits, and RankSearches
	// accumulate the Recommend pipeline's batching counters across rounds:
	// weight vectors ranked, distinct vectors left after
	// canonicalization/dedup, distinct vectors served from the shared
	// result cache, and Top-k-Pkg runs actually executed (EXP: the pool,
	// and its mean as the one distinct vector). The dedup ratio is
	// (RankSamples−RankDistinct)/RankSamples; the cache hit rate is
	// RankCacheHits/RankDistinct.
	RankSamples   int
	RankDistinct  int
	RankCacheHits int
	RankSearches  int
}

// Slate is one screenful of packages presented to the user: the system's
// current best guesses (exploitation) plus random packages (exploration),
// per §2.2.
type Slate struct {
	// Recommended is the ranked top-k under the configured semantics.
	Recommended []ranking.Ranked
	// Random is the exploration tail.
	Random []pkgspace.Package
	// All is every distinct package shown, recommended first.
	All []pkgspace.Package
	// Epoch identifies the catalogue epoch the slate was computed against
	// (0 for a static catalogue); Space is that epoch's feature space, so
	// callers can resolve item IDs and names consistently with the slate
	// even if the live catalogue swaps right after Recommend returns.
	Epoch uint64
	Space *feature.Space
}

// Engine is the package recommender. It is not safe for concurrent use.
type Engine struct {
	cfg Config
	sh  *Shared // catalogue-wide state: epochs + shared result cache
	rng *rand.Rand
	// graph holds the preferences under stable IDs; pool satisfies the
	// constraint set cs's epoch derives from it (see constraintsAt).
	graph *prefgraph.Graph
	pool  *maintain.Pool
	// poolHash is constraintsHash of the reduced constraint set the pool
	// satisfies — the pinned set's, taken when the pool is drawn or
	// maintained (ensureSamples, record), or the snapshot's for a restored
	// pool — so a catalogue swap compares it with the new epoch's set without
	// rebuilding the old one. Meaningless while pool is nil.
	poolHash uint64
	stats    Stats
	// draws counts sampler runs: initial pools and one per maintenance pass
	// that found violators.
	draws int
	// cs is the stored preferences as the pinned epoch derives them: the
	// epoch of the most recent slate (or restore), else the one current at
	// first use. Clicks and pairwise feedback refer to packages the user
	// was shown, so their dense item IDs resolve in that epoch, not in
	// whatever the catalogue has swapped to since, and the pool satisfies
	// its derived constraint set. Nil until first use; adopt is the only
	// way an epoch gets pinned, and record the only way the set grows.
	cs *constraintSet
}

// Shared is the catalogue-wide half of an engine: the normalized
// configuration plus the feature space and search index of the catalogue's
// current epoch. Many engines (one per user session) derive from one
// Shared via NewEngine, skipping the O(n log n) index construction that
// dominates core.New. A Shared is safe for concurrent use; the engines it
// produces are independent and individually single-threaded.
//
// A Shared comes in two flavors. NewShared freezes one epoch at
// construction — the original immutable-catalogue behavior. NewLiveShared
// wraps a catalog.Catalog instead: every Recommend resolves the
// catalogue's current epoch with one atomic load, so mutations show up in
// the next request without any engine or manager restart, and a request in
// flight keeps the coherent epoch it started with.
type Shared struct {
	cfg   Config
	space *feature.Space // static epoch (nil when cat != nil)
	ix    *search.Index
	cat   *catalog.Catalog // live catalogue (nil for static)
	cache *ranking.Cache
	keys  [ranking.MPO + 1]string // ranking.SearchKey by semantics, taken once
}

// epochView is one resolved, coherent catalogue epoch: everything a single
// request needs. For a static Shared the ID is always 0 and ids is nil
// (dense positions are the stable identity).
type epochView struct {
	id    uint64
	space *feature.Space
	ix    *search.Index
	ids   *catalog.IDMap
}

// epoch resolves the current epoch: wait-free, never blocks on a rebuild.
func (sh *Shared) epoch() epochView {
	if sh.cat != nil {
		ep := sh.cat.Current()
		return epochView{id: ep.ID, space: ep.Space, ix: ep.Index, ids: ep.IDs()}
	}
	return epochView{id: 0, space: sh.space, ix: sh.ix}
}

// stablePkg is the package's stable-ID identity — the key learned state is
// stored under, immune to dense-ID remaps across epochs. With a nil map
// (static catalogue) dense positions are the stable identity.
func (v epochView) stablePkg(p pkgspace.Package) pkgspace.Package {
	if v.ids == nil {
		return pkgspace.New(p.IDs...)
	}
	ids := make([]int, len(p.IDs))
	for i, d := range p.IDs {
		ids[i] = v.ids.StableID(d)
	}
	return pkgspace.New(ids...)
}

// denseID resolves a stable catalogue ID in this epoch; on a static
// catalogue an ID outside the item range is absent.
func (v epochView) denseID(stable int) (int, bool) {
	if v.ids == nil {
		return stable, stable >= 0 && stable < len(v.space.Items)
	}
	return v.ids.DenseID(stable)
}

// surviving returns the members of stable package p that exist in this
// epoch, and how many vanished.
func (v epochView) surviving(p pkgspace.Package) (kept pkgspace.Package, vanished int) {
	for _, s := range p.IDs {
		if _, ok := v.denseID(s); ok {
			kept.IDs = append(kept.IDs, s)
		} else {
			vanished++
		}
	}
	return kept, vanished
}

// vector is the normalized aggregate vector, in this epoch's space, of a
// stable package whose members all exist here. Dense IDs rank stable
// ones, so the members stay in ascending order.
func (v epochView) vector(p pkgspace.Package) []float64 {
	dense := make([]int, len(p.IDs))
	for i, s := range p.IDs {
		dense[i], _ = v.denseID(s)
	}
	return pkgspace.Vector(v.space, pkgspace.Package{IDs: dense})
}

// constraintSet is the engine's stored preferences as one epoch reads
// them: graph is the engine's own when the epoch reads every preference
// whole; the drop counts say what the derivation lost otherwise. The epoch
// is held without its search index, so an idle session does not keep a
// retired epoch's index in memory.
type constraintSet struct {
	ep                         epochView
	graph                      *prefgraph.Graph
	droppedItems, droppedPrefs int
	vecs                       prefgraph.VectorCache // the packages' vectors in ep, by graph node
}

// constraintsAt derives the constraint set of the stored preferences under
// epoch ep, the one rule resident and restored sessions share. Vanished
// members are dropped, and so is a preference whose side empties or holds
// more than φ items (φ is a deployment setting: an import from a larger-φ
// deployment is churn, not corruption), collapses onto the other side,
// merges into a derived edge, or closes a cycle after the shrinkage.
// Preferences are taken in stable-ID order, so the result depends on the
// edges alone. When nothing is dropped the stored graph is the derived
// graph, constraint order included.
func (e *Engine) constraintsAt(ep epochView) *constraintSet {
	absent := func(s int) bool { _, ok := ep.denseID(s); return !ok }
	prefs := e.graph.Preferences()
	if !slices.ContainsFunc(prefs, func(pr [2]pkgspace.Package) bool {
		return slices.ContainsFunc(pr[:], func(p pkgspace.Package) bool {
			return p.Size() > ep.space.MaxSize || slices.ContainsFunc(p.IDs, absent)
		})
	}) {
		return &constraintSet{ep: ep, graph: e.graph}
	}
	slices.SortFunc(prefs, func(a, b [2]pkgspace.Package) int {
		return cmp.Or(slices.Compare(a[0].IDs, b[0].IDs), slices.Compare(a[1].IDs, b[1].IDs))
	})
	cs := &constraintSet{ep: ep, graph: prefgraph.New()}
	for _, pr := range prefs {
		w, wDrop := ep.surviving(pr[0])
		l, lDrop := ep.surviving(pr[1])
		cs.droppedItems += wDrop + lDrop
		if w.Size() == 0 || l.Size() == 0 || w.Size() > ep.space.MaxSize || l.Size() > ep.space.MaxSize {
			cs.droppedPrefs++
			continue
		}
		// The stored graph is acyclic and has no duplicate edges, so a
		// self-preference, a cycle or a merge here is the shrinkage's.
		edges := cs.graph.Edges()
		if err := cs.graph.AddPreference(w, l); err != nil || cs.graph.Edges() == edges {
			cs.droppedPrefs++
		}
	}
	return cs
}

// reduced builds the transitively reduced constraint set (§3.3), each
// half-space taken from the epoch's package vectors. A session keeps the
// vectors, not the set: the set is built when a draw or a pool hash needs
// it, and reuses the vectors of the packages it already had.
func (cs *constraintSet) reduced() []prefgraph.Constraint {
	return cs.graph.ConstraintsCached(true, &cs.vecs, cs.ep.vector)
}

// adopt pins epoch ep: the stored preferences are derived under it, and a
// drawn pool is kept iff poolHash, the hash of the constraint set the pool
// satisfies, equals the derived set's. A pool drawn for another set would
// bias every recommendation until the next feedback, so it is dropped and
// redrawn lazily under the derived set.
func (e *Engine) adopt(ep epochView, poolHash uint64) {
	ep.ix = nil
	e.cs = e.constraintsAt(ep)
	if e.pool == nil {
		return
	}
	if h := constraintsHash(e.cs.reduced()); h == poolHash {
		e.poolHash = h
	} else {
		e.pool = nil
	}
}

// pinned returns the stored preferences as the pinned epoch derives them.
// First use pins the current epoch, so a click arriving before any
// Recommend validates and vectorizes all its packages in one epoch.
func (e *Engine) pinned() *constraintSet {
	if e.cs == nil {
		e.adopt(e.sh.epoch(), 0)
	}
	return e.cs
}

// normalizeConfig applies the paper's defaults and validates everything
// that does not depend on the item set.
func normalizeConfig(cfg Config) (Config, error) {
	if cfg.Profile == nil {
		return cfg, fmt.Errorf("core: Config.Profile is required")
	}
	if cfg.MaxPackageSize < 0 || cfg.K < 0 || cfg.RandomCount < 0 || cfg.SampleCount < 0 {
		return cfg, fmt.Errorf("core: negative size in Config (MaxPackageSize %d, K %d, RandomCount %d, SampleCount %d)",
			cfg.MaxPackageSize, cfg.K, cfg.RandomCount, cfg.SampleCount)
	}
	if !(cfg.Psi >= 0 && cfg.Psi <= 1) {
		return cfg, fmt.Errorf("core: Config.Psi %v is outside [0, 1]", cfg.Psi)
	}
	if cfg.MaxPackageSize == 0 {
		cfg.MaxPackageSize = 5
	}
	if cfg.K == 0 {
		cfg.K = 5
	}
	if cfg.RandomCount == 0 {
		cfg.RandomCount = cfg.K
	}
	if cfg.SampleCount == 0 {
		cfg.SampleCount = 1000
	}
	if cfg.Psi == 0 {
		cfg.Psi = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Prior != nil && cfg.Prior.Dims() != cfg.Profile.Dims() {
		return cfg, fmt.Errorf("core: prior has %d dims, profile has %d", cfg.Prior.Dims(), cfg.Profile.Dims())
	}
	if cfg.Prior == nil {
		// One component at the origin draws nothing from its generator.
		// Engines only read a prior, so all of a Shared's engines share it.
		cfg.Prior = gaussmix.DefaultPrior(cfg.Profile.Dims(), 1, nil)
	}
	return cfg, nil
}

// newCache builds the shared result cache cfg selects (nil = disabled).
func newCache(cfg Config) *ranking.Cache {
	if cfg.SearchCacheSize < 0 {
		return nil
	}
	return ranking.NewCache(cfg.SearchCacheSize)
}

// NewShared validates cfg, applies the paper's defaults, and builds the
// feature space and search index once — a static catalogue frozen at
// process start (epoch 0). Use NewLiveShared for a mutable catalogue.
func NewShared(cfg Config) (*Shared, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	space, err := feature.NewSpace(cfg.Items, cfg.Profile, cfg.MaxPackageSize)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sh := &Shared{cfg: cfg, space: space, ix: search.NewIndex(space), cache: newCache(cfg)}
	return sh.keyed(), nil
}

// NewLiveShared builds a Shared over a mutable catalogue: engines resolve
// the catalogue's current epoch per Recommend instead of holding a frozen
// index. The catalogue owns the profile and φ, so cfg.Profile,
// cfg.MaxPackageSize, and cfg.Items are taken from cat (any values set on
// cfg for those fields are ignored). Every epoch swap drops the shared
// Top-k-Pkg result cache; results are additionally keyed by epoch ID, so
// even a Recommend racing the swap can never mix epochs.
func NewLiveShared(cfg Config, cat *catalog.Catalog) (*Shared, error) {
	if cat == nil {
		return nil, fmt.Errorf("core: NewLiveShared requires a catalogue")
	}
	cfg.Profile = cat.Profile()
	cfg.MaxPackageSize = cat.MaxPackageSize()
	cfg.Items = nil
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	sh := &Shared{cfg: cfg, cat: cat, cache: newCache(cfg)}
	if sh.cache != nil {
		// A result is served only under the (cache epoch, catalogue epoch)
		// it was computed on (see ranking's key prefix), so a search pinned
		// to a superseded epoch can Put after this drop and never be read.
		cat.Subscribe(func(*catalog.Epoch, *catalog.ChangeSet) { sh.cache.Invalidate() })
	}
	return sh.keyed(), nil
}

// rankOptions are the ranking options every engine of sh recommends under
// sem, but for the call's cache epoch and metrics.
func (sh *Shared) rankOptions(sem ranking.Semantics) ranking.Options {
	opts := ranking.Options{K: sh.cfg.K, Sigma: sh.cfg.K, Search: sh.cfg.Search, Quantum: sh.cfg.WeightQuantum, Cache: sh.cache}
	if int(sem) < len(sh.keys) {
		opts.SearchKey = sh.keys[sem]
	}
	return opts
}

// keyed takes each semantics' search key once, so no Recommend formats one.
func (sh *Shared) keyed() *Shared {
	for sem := range sh.keys {
		sh.keys[sem], _ = ranking.SearchKey(ranking.Semantics(sem), sh.rankOptions(ranking.Semantics(sem)))
	}
	return sh
}

// Space exposes the current epoch's feature space.
func (sh *Shared) Space() *feature.Space { return sh.epoch().space }

// Index exposes the current epoch's search index (safe for concurrent TopK
// runs; immutable once published).
func (sh *Shared) Index() *search.Index { return sh.epoch().ix }

// EpochInfo reports one coherent (epoch ID, item count) pair — resolved
// from a single epoch, so a swap between two separate reads cannot pair an
// ID with another epoch's item count.
func (sh *Shared) EpochInfo() (id uint64, items int) {
	ep := sh.epoch()
	return ep.id, len(ep.space.Items)
}

// SearchCache exposes the shared per-catalogue result cache (nil when the
// config disabled caching). Safe for concurrent use; see ranking.Cache.
func (sh *Shared) SearchCache() *ranking.Cache { return sh.cache }

// NewEngine derives an independent engine over the shared space and index:
// its own random stream, preference graph, and sample pool. seed
// differentiates sessions; 0 falls back to the shared config's seed, so
// Shared{cfg}.NewEngine(0) behaves exactly like New(cfg). The stream is a
// splitmix64 generator: 8 bytes of state, seeded in O(1), so a login pays
// nothing for it and a resident session keeps nothing more of it.
func (sh *Shared) NewEngine(seed int64) (*Engine, error) {
	cfg := sh.cfg
	if seed != 0 {
		cfg.Seed = seed
	}
	return &Engine{
		cfg:   cfg,
		sh:    sh,
		rng:   rand.New(&splitmix64{state: uint64(cfg.Seed)}),
		graph: prefgraph.New(),
	}, nil
}

// splitmix64 is Steele, Lea and Flood's SplitMix64 as a rand.Source64: a
// Weyl sequence through a 64-bit finalizer. math/rand's own source keeps
// 607 words and seeds them in a loop; this one keeps one.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// New validates the configuration and builds an engine. Sampling is lazy:
// the pool is drawn on the first Recommend. Callers creating many engines
// over one catalogue should build a Shared once and use NewEngine instead.
func New(cfg Config) (*Engine, error) {
	sh, err := NewShared(cfg)
	if err != nil {
		return nil, err
	}
	return sh.NewEngine(0)
}

// Space exposes the current epoch's feature space (items, profile,
// normalizer). With a live catalogue, successive calls may observe
// different epochs; a Slate's Space field pins the epoch a slate used.
func (e *Engine) Space() *feature.Space { return e.sh.epoch().space }

// Stats returns the cumulative counters; ConstraintsActive is read in the
// pinned epoch (0 before any epoch is pinned: nothing is stored then).
func (e *Engine) Stats() Stats {
	s := e.stats
	if e.cs != nil {
		s.ConstraintsActive = e.cs.graph.ReducedEdges()
	}
	return s
}

// FeedbackSpace is the space feedback package IDs are interpreted in: the
// epoch of the engine's most recent slate, falling back to the current
// epoch before any Recommend. Callers validating click/feedback payloads
// must use it rather than Space(), or a catalogue swap between a slate and
// its click would misread (or reject) the slate's item IDs.
func (e *Engine) FeedbackSpace() *feature.Space { return e.pinned().ep.space }

// draw is the engine's one sampler run: n samples from the prior
// restricted by the constraint set cs under the noise model (sampling.Draw).
// Its attempts count toward SampleAttempts whether it draws a first pool or
// a click's replacements.
func (e *Engine) draw(cs []prefgraph.Constraint, n int) (sampling.Result, error) {
	v := sampling.NewValidator(e.cfg.Profile.Dims(), cs)
	v.Psi = e.cfg.Psi
	e.draws++
	res, err := sampling.Draw(e.cfg.Prior, v, e.rng, n)
	e.stats.SampleAttempts += res.Attempts
	return res, err
}

// ensureSamples draws the initial pool, if none exists yet, under the
// constraint set derived in the pinned epoch.
func (e *Engine) ensureSamples() error {
	if e.pool != nil {
		return nil
	}
	red := e.pinned().reduced()
	res, err := e.draw(red, e.cfg.SampleCount)
	if err != nil {
		if !errors.Is(err, sampling.ErrTooManyRejections) {
			return fmt.Errorf("core: initial sampling: %w", err)
		}
		// The feedback set leaves (almost) no valid weight vectors — e.g.
		// preferences read under a later catalogue epoch now contradict
		// each other, or a noisy user answered inconsistently. Mirror the
		// maintenance path in record: degrade rather than fail
		// the interaction. Keep whatever the sampler did accept and top
		// the pool up with prior draws — the §7 noise model's limit: under
		// total inconsistency the posterior collapses to the prior.
		e.stats.InitialSampleFallbacks++
		res.Samples = e.fillFromPrior(res.Samples)
	}
	e.pool = maintain.NewPool(res.Samples)
	e.poolHash = constraintsHash(red)
	return nil
}

// fillFromPrior tops samples up to SampleCount with constraint-free prior
// draws (box-checked, clamped as a last resort so the fill always
// terminates).
func (e *Engine) fillFromPrior(samples []sampling.Sample) []sampling.Sample {
	box := sampling.NewValidator(e.cfg.Profile.Dims(), nil)
	w := make([]float64, e.cfg.Profile.Dims())
	attempts := 0
	for len(samples) < e.cfg.SampleCount {
		e.cfg.Prior.SampleInto(e.rng, w)
		e.stats.SampleAttempts++
		attempts++
		if !box.InBox(w) {
			if attempts < 50*e.cfg.SampleCount {
				continue
			}
			for i := range w {
				w[i] = math.Max(-1, math.Min(1, w[i]))
			}
		}
		samples = append(samples, sampling.Sample{W: append([]float64(nil), w...), Q: 1})
	}
	return samples
}

// Samples returns the current weight-vector pool, drawing it if needed.
func (e *Engine) Samples() ([]sampling.Sample, error) {
	if err := e.ensureSamples(); err != nil {
		return nil, err
	}
	return e.pool.Samples, nil
}

// Recommend assembles a slate: the top-K packages under the configured
// semantics plus RandomCount random exploration packages. EXP runs one
// search under the pool's mean weight vector. TKP's and MPO's per-sample
// searches run through the batched pipeline — duplicate weight vectors are
// searched once, vectors seen in an earlier round are served from the
// shared result cache, and the remainder runs on this goroutine (see
// ranking.Rank and Stats' Rank* counters).
//
// The catalogue epoch is resolved once at entry and pinned for the whole
// call: sampling, ranking, cache keys, and the exploration tail all use
// the same coherent snapshot even if the live catalogue swaps
// mid-request. The slate records the epoch (and its space) it was
// computed against, and feedback on the slate is read in it: the engine
// adopts a new epoch, keeping the pool as Restore does. A search that finds
// no package returns ErrEmptySlate.
func (e *Engine) Recommend() (*Slate, error) {
	ep := e.sh.epoch()
	if cs := e.pinned(); cs.ep.id != ep.id {
		e.adopt(ep, e.poolHash)
	}
	if err := e.ensureSamples(); err != nil {
		return nil, err
	}
	var m ranking.Metrics
	opts := e.sh.rankOptions(e.cfg.Semantics)
	opts.Epoch, opts.Metrics = ep.id, &m
	ranked, err := ranking.Rank(ep.ix, e.pool.Samples, e.cfg.Semantics, opts)
	e.stats.RankSamples += m.Samples
	e.stats.RankDistinct += m.Distinct
	e.stats.RankCacheHits += m.CacheHits
	e.stats.RankSearches += m.Searches
	if err != nil {
		return nil, fmt.Errorf("core: ranking: %w", err)
	}
	if len(ranked) == 0 {
		return nil, ErrEmptySlate
	}
	slate := &Slate{Recommended: ranked, Epoch: ep.id, Space: ep.space}
	slate.All = make([]pkgspace.Package, 0, len(ranked)+e.cfg.RandomCount)
	for _, r := range ranked {
		slate.All = append(slate.All, r.Pkg)
	}
	// A slate is at most K + RandomCount packages: scanning them is the
	// duplicate check.
	for tries := 0; len(slate.Random) < e.cfg.RandomCount && tries < 50*e.cfg.RandomCount; tries++ {
		p := pkgspace.Random(e.rng, len(ep.space.Items), e.cfg.MaxPackageSize)
		if !slices.ContainsFunc(slate.All, func(q pkgspace.Package) bool { return pkgspace.Equal(p, q) }) {
			slate.Random = append(slate.Random, p)
			slate.All = append(slate.All, p)
		}
	}
	return slate, nil
}

// RandomPackage draws a uniformly random size in [1, φ] and that many
// distinct random items from the current epoch — the exploration packages
// of §2.2.
func (e *Engine) RandomPackage() pkgspace.Package {
	return pkgspace.Random(e.rng, len(e.Space().Items), e.cfg.MaxPackageSize)
}

// ErrEmptySlate is Recommend's answer when the search finds no package
// for the slate (every package fails Search.Candidate): a slate with no
// recommendation is never served as a success.
var ErrEmptySlate = errors.New("core: no package qualifies for the slate")

// ErrChosenNotShown rejects a click on a package that is not among the
// packages shown with it.
var ErrChosenNotShown = errors.New("core: chosen package was not shown")

// ErrPackageTooLarge rejects feedback naming a package of more than φ
// items: it lies outside the package space P_φ the preferences range over.
var ErrPackageTooLarge = errors.New("core: package exceeds the maximum package size")

// ErrInvalidPackage rejects feedback naming an empty package or an item
// outside the feedback epoch (see FeedbackSpace); the wrapped error says
// which.
var ErrInvalidPackage = errors.New("core: invalid package")

// checkPackages returns ErrInvalidPackage or ErrPackageTooLarge for the
// first package that is empty, names an item outside the feedback epoch or
// holds more than φ items.
func (e *Engine) checkPackages(pkgs ...pkgspace.Package) error {
	sp := e.FeedbackSpace()
	for _, p := range pkgs {
		if len(p.IDs) == 0 {
			return fmt.Errorf("%w: empty package", ErrInvalidPackage)
		}
		if err := pkgspace.ValidateIDs(sp, p); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidPackage, err)
		}
		if len(p.IDs) > sp.MaxSize {
			return fmt.Errorf("%w: %d items, φ = %d", ErrPackageTooLarge, len(p.IDs), sp.MaxSize)
		}
	}
	return nil
}

// Click records implicit feedback: the user clicked chosen out of shown,
// yielding a pairwise preference over every other shown package (§3.3).
// It records nothing unless every package passes: a chosen package missing
// from shown returns ErrChosenNotShown, and a shown package that is empty,
// names an item outside the feedback epoch or holds more than φ items
// returns ErrInvalidPackage or ErrPackageTooLarge. Preferences
// contradicting earlier feedback are skipped and counted in
// Stats.CyclesSkipped, mirroring the paper's cycle resolution. The click's
// preferences are one setwise choice, so they are maintained as one batch:
// one pass over the pool and at most one replacement draw (see record).
func (e *Engine) Click(chosen pkgspace.Package, shown []pkgspace.Package) error {
	if !slices.ContainsFunc(shown, func(p pkgspace.Package) bool { return pkgspace.Equal(p, chosen) }) {
		return ErrChosenNotShown
	}
	if err := e.checkPackages(shown...); err != nil { // chosen is among them
		return err
	}
	losers := make([]pkgspace.Package, 0, len(shown)-1)
	for _, p := range shown {
		if !pkgspace.Equal(p, chosen) {
			losers = append(losers, p)
		}
	}
	return e.record(chosen, losers, true)
}

// Feedback records a single pairwise preference winner ≻ loser, updates the
// preference DAG, and maintains the sample pool: samples violating the new
// constraint are replaced by fresh draws from the feedback-aware sampler
// (§3.4).
//
// Dense item IDs are interpreted in the pinned epoch (the most recent
// slate's, whose derived constraint set the pool satisfies), and the
// preference is stored under the packages' stable catalogue identity. When
// that epoch drops some stored preference (see constraintsAt), the new one
// must fit the derived graph too, so it joins the derived set as exactly
// one edge. A package that is empty, names an item outside the pinned
// epoch or holds more than φ items records nothing and returns
// ErrInvalidPackage or ErrPackageTooLarge. Stats.Feedback counts a
// preference once; a repeat still runs the maintenance pass.
func (e *Engine) Feedback(winner, loser pkgspace.Package) error {
	if err := e.checkPackages(winner, loser); err != nil {
		return err
	}
	return e.record(winner, []pkgspace.Package{loser}, false)
}

// record is Click and Feedback after their package checks: it records
// winner ≻ loser for every loser, then maintains the pool once against
// every preference it recorded. A preference closing a cycle is skipped
// and counted when skipCycles is set (a click) and ends the recording
// otherwise (explicit feedback returns the error).
//
// Maintenance runs on the pinned set plus the new edges. When the pinned
// epoch drops some stored preference, a derivation takes preferences in
// stable-ID order, so deriving the stored edges with the new ones may
// differ from that: the pinned set is derived afresh once they are in. The
// samples satisfying every new constraint are already draws from the new
// target, so only the violators of some new constraint are replaced, all
// from one draw.
func (e *Engine) record(winner pkgspace.Package, losers []pkgspace.Package, skipCycles bool) error {
	cs := e.pinned()
	derived := cs.graph != e.graph
	wv, sw := pkgspace.Vector(cs.ep.space, winner), cs.ep.stablePkg(winner)
	edges := cs.graph.Edges()
	var added []prefgraph.Constraint
	var err error
	for _, loser := range losers {
		sl := cs.ep.stablePkg(loser)
		if err = e.addEdge(cs.graph, derived, sw, sl); err != nil {
			if skipCycles && errors.Is(err, prefgraph.ErrCycle) {
				e.stats.CyclesSkipped++
				err = nil
				continue
			}
			break
		}
		lv := pkgspace.Vector(cs.ep.space, loser)
		diff := make([]float64, len(wv))
		for i := range diff {
			diff[i] = wv[i] - lv[i]
		}
		added = append(added, prefgraph.Constraint{Winner: sw, Loser: sl, Diff: diff})
	}
	changed := cs.graph.Edges() != edges
	if derived {
		e.cs = e.constraintsAt(cs.ep)
	}
	if e.pool == nil {
		return err // a pool not yet drawn will be drawn under the derived set
	}
	// Once maintained, the pool satisfies the pinned set: keep its hash,
	// taken from the set the replacement draw built unless the pinned set
	// was derived afresh.
	var red []prefgraph.Constraint
	if changed || derived {
		defer func() {
			if red == nil || derived {
				red = e.cs.reduced()
			}
			e.poolHash = constraintsHash(red)
		}()
	}
	if len(added) == 0 {
		return err
	}
	// Apply draws only to replace violators, so feedback the whole pool
	// satisfies derives no constraint set.
	replaced, work, merr := e.pool.Apply(added, func(n int) (sampling.Result, error) {
		red = cs.reduced()
		return e.draw(red, n)
	})
	e.stats.MaintenanceWork += work
	e.stats.SamplesReplaced += replaced
	if merr != nil {
		if !errors.Is(merr, sampling.ErrTooManyRejections) {
			return fmt.Errorf("core: feedback maintenance: %w", merr)
		}
		// The feedback set leaves no valid weight vector (under ψ = 1 its
		// cone has no interior point): keep the stale samples rather than
		// fail the interaction. The paper assumes consistent feedback
		// (§2.1); Psi < 1 is the principled alternative under noise (§7).
		e.stats.ReplacementFailures++
	}
	return err
}

// addEdge records sw ≻ sl in the stored graph, and first in g when g is a
// derived set (a preference must fit the derived graph too).
func (e *Engine) addEdge(g *prefgraph.Graph, derived bool, sw, sl pkgspace.Package) error {
	if derived {
		if err := g.AddPreference(sw, sl); err != nil {
			return err
		}
	}
	edges := e.graph.Edges()
	if err := e.graph.AddPreference(sw, sl); err != nil {
		return err
	}
	if e.graph.Edges() > edges {
		e.stats.Feedback++
	}
	return nil
}

// TopKForWeights runs Top-k-Pkg for an explicit weight vector — the
// "oracle" entry point when the utility is known rather than elicited. The
// epoch is resolved once for the call.
func (e *Engine) TopKForWeights(w []float64, k int) ([]pkgspace.Scored, error) {
	ep := e.sh.epoch()
	u, err := feature.NewUtility(ep.space.Profile, w)
	if err != nil {
		return nil, err
	}
	so := e.cfg.Search
	so.K = k
	res, err := ep.ix.TopK(u, so)
	if err != nil {
		return nil, err
	}
	return res.Packages, nil
}
