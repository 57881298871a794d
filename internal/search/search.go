// Package search implements Top-k-Pkg (paper §4, Algorithms 2–4): finding
// the top-k packages of flexible size ≤ φ for a fixed weight vector,
// without enumerating the exponential package space. Items are consumed
// from per-dimension sorted lists in round-robin order; packages are grown
// incrementally in two queues (expandable Q+ and closed Q−); and the search
// stops as soon as the best utility still reachable (ηup, from the
// upper-exp bound of Algorithm 3) cannot beat the current k-th best (ηlo).
package search

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/skyline"
)

// Options configures one Top-k-Pkg run.
type Options struct {
	// K is the number of packages to return.
	K int
	// ExpandAll disables Algorithm 4's line-3 pruning (only grow a package
	// with an item that strictly improves it). The paper's pruning is a
	// heuristic for profiles with non-monotone marginals (avg, min): a
	// discarded equal-utility subpackage can block a strictly better
	// superset. ExpandAll restores exactness at extra cost; see expand.
	ExpandAll bool
	// MaxQueue caps the expandable queue Q+. The paper's algorithm keeps
	// every improvable package, which can grow combinatorially before the
	// boundary bound tightens; capping turns the search into a beam over
	// the highest-upper-bound packages. 0 selects DefaultMaxQueue; a
	// negative value removes the cap (exact, possibly exponential). When
	// the cap drops packages, Result.Truncated is set and results are
	// best-effort.
	MaxQueue int
	// MaxAccessed bounds how many distinct items the search draws from the
	// sorted lists (0 = unlimited). The boundary bound can take thousands
	// of accesses to close on conflicting profiles even though the actual
	// top packages were found within the first dozens of items (the §4
	// intuition); a depth budget trades that certification for speed.
	// When the budget stops the search early, Result.Truncated is set.
	// On a sketch-refine search the budget bounds the refine's draws; the
	// sketch's draws over the ⌈√n⌉ representatives come on top (720.6
	// accessed per search at MaxAccessed 500 on uniform 100k).
	MaxAccessed int
	// Candidate, when non-nil, filters which packages may enter the result
	// (the schema predicates of §7). Packages failing it are still expanded,
	// since predicates such as "at least two novels" are not anti-monotone:
	// a predicate run grows every package as ExpandAll does, because line 3
	// would stop a package that must grow to pass, such as a cart that
	// needs a second novel that lowers its utility. The package it is
	// handed is the run's scratch: valid for the call only, so a predicate
	// must not keep it.
	Candidate pkgspace.Predicate
	// DisableDominancePrune turns off the skyline head filter. The filter
	// only engages when the utility is monotone for the profile (positive
	// weights on sum/max, negative on min, no weighted avg), and skips a
	// drawn item only when a sound upper bound over every package
	// containing it falls strictly below the current k-th best — exact for
	// uncapped runs; under a Q+ cap the skipped items' children no longer
	// compete for beam slots, so beam results may differ (see exec, which
	// states the bound). Disabling exists for bench's unpruned probe
	// (search.unpruned_topk_p50_us) and the pruned≡unpruned property suite.
	DisableDominancePrune bool
	// DisablePartition turns off sketch-refine partitioned search (see
	// partitioned.go). It only engages on beamed or budgeted runs whose
	// utility is monotone, weighted and predicate-free; an uncapped,
	// unbudgeted run never partitions. A partitioned run refines inside the
	// sketch-selected clusters and may differ from an unpartitioned beam.
	// Disabling exists for bench's unpruned probe and the
	// partitioned≡unpartitioned suites.
	DisablePartition bool
}

// DefaultMaxQueue is the Q+ cap applied when Options.MaxQueue is zero.
// Exhaustive runs (tests against the brute-force oracle) should pass
// MaxQueue: -1.
const DefaultMaxQueue = 512

// CacheKey encodes the options canonically for result-cache keys: two
// option sets with equal keys produce identical TopK results over the same
// index and utility. ok is false when the options carry predicate
// functions — closures cannot be identified across calls, so their results
// must never be reused from a cache.
func (o Options) CacheKey() (key string, ok bool) {
	if o.Candidate != nil {
		return "", false
	}
	return fmt.Sprintf("k%d;ea%t;mq%d;ma%d;dp%t;pt%t",
		o.K, o.ExpandAll, o.MaxQueue, o.MaxAccessed, o.DisableDominancePrune, o.DisablePartition), true
}

// Result is the outcome of a Top-k-Pkg run, with the work counters the
// experiments report.
type Result struct {
	// Packages holds the top-k in descending utility (ties by the
	// deterministic package order).
	Packages []pkgspace.Scored
	// Accessed is the number of distinct items drawn from the sorted lists;
	// on a sketch-refine search, the sketch's draws plus the refine's (so
	// it can exceed Options.MaxAccessed by up to the cluster count).
	Accessed int
	// Created is the number of candidate packages materialized.
	Created int
	// Truncated reports that MaxQueue forced dropping expandable packages.
	Truncated bool
	// DomPruned counts drawn items the dominance filter skipped (zero when
	// the filter never engaged).
	DomPruned int
	// SketchSkipped counts the items in clusters the refine left closed
	// (zero when partitioning never engaged).
	SketchSkipped int
	// RefineClustersOpened is the number of distinct clusters the refine
	// phase read (zero when partitioning never engaged).
	RefineClustersOpened int
}

// Index holds the per-entry sorted item lists for a space, so that repeated
// Top-k-Pkg runs (one per weight-vector sample, §4) share the O(n log n)
// sort work. Lists exclude items that are null on the entry's feature; a
// separate orphan list holds items null on every profile feature so they
// are still reachable.
type Index struct {
	space *feature.Space
	// asc[d] lists item ids ascending by the feature of profile entry d.
	asc [][]int32
	// orphans are items with null on every entry's feature.
	orphans []int32
	// seenPool recycles the per-run accessed stamp array (see seenSet):
	// claiming it for a run is O(1), with no O(n) zeroing or O(touched)
	// sparse reset — the costs that dominated run setup at large n.
	seenPool sync.Pool
	// heads caches the space's non-dominated item set (skyline.Heads),
	// computed lazily on the first monotone-utility search or injected by
	// the catalogue's incremental delta maintenance (SetHeads). Immutable
	// once set.
	heads     atomic.Pointer[skyline.Set]
	headsOnce sync.Once
	// part caches the sketch-refine partition and its representative
	// sub-index, materialized lazily on the first eligible search (every
	// eligible search materializes, so results within one epoch are
	// consistent), by EnsurePartition, or injected by the catalogue
	// (SetPartition); partStats, when set, aggregates per-search partition
	// counters across runs.
	part      atomic.Pointer[partState]
	partOnce  sync.Once
	partStats *PartitionStats
	// seenSrc, when non-nil, is the index whose seenPool this subset index
	// (a partition's sketch index) borrows: it shares the full space's
	// dense id range, so the sketch and refine phases of one search take
	// turns on one stamp array instead of keeping an O(n) array each.
	seenSrc *Index
	// memPool recycles a run and everything it uses but its result (runMem)
	// across searches. Every index keeps its own — a sketch index does not
	// borrow seenSrc's — so a pool only ever serves runs over the index whose
	// space its states and plans were made for.
	memPool sync.Pool
	// barrenAudit is set only by tests (barren_test.go): called with the item,
	// its need and whether the round is elided on every round a verdict is
	// taken in, and the returned func after it. An elided round runs as it
	// would unaudited; on a full round a finite need (the package verdict)
	// makes expand score every queued package instead of the ones need admits.
	barrenAudit func(r *run, item int32, need float64, elided bool) func()
}

// seenSet is a stamped membership set over dense item IDs: item i is a
// member of the current run iff marks[i] equals the run's stamp. Claiming
// the set for a new run just increments the stamp; stale marks from prior
// runs can never collide (the stamp is a strictly increasing uint64).
type seenSet struct {
	stamp uint64
	marks []uint64
}

// Heads returns the space's non-dominated item set, computing it on first
// use. Safe for concurrent searches.
func (ix *Index) Heads() *skyline.Set {
	if s := ix.heads.Load(); s != nil {
		return s
	}
	ix.headsOnce.Do(func() {
		ix.heads.CompareAndSwap(nil, skyline.Heads(ix.space))
	})
	return ix.heads.Load()
}

// PeekHeads returns the head set if it has been computed or injected, nil
// otherwise — without triggering the computation.
func (ix *Index) PeekHeads() *skyline.Set { return ix.heads.Load() }

// SetHeads injects a precomputed head set (the catalogue's incremental
// delta maintenance). A set that is already present wins; the index never
// observes two different head sets.
func (ix *Index) SetHeads(s *skyline.Set) { ix.heads.CompareAndSwap(nil, s) }

// NewIndex orders the items of sp once per profile entry with the radix
// kernel (feature.OrderColumns), scanning the per-feature columns rather
// than chasing item rows. The lists share one scratch, and an item is an
// orphan when every listed dimension's column holds null for it — possible
// only when each such column has a null.
func NewIndex(sp *feature.Space) *Index {
	dims := sp.Dims()
	ix := &Index{space: sp, asc: make([][]int32, dims)}
	var cols [][]float64 // the listed dimensions' columns
	var lists [][]int32  // and their lists
	mayOrphan := true    // whether some item may be null on all of them
	for d := 0; d < dims; d++ {
		e := sp.Profile.Entry(d)
		if e.Agg == feature.AggNull {
			continue
		}
		col := sp.Col(e.Feature)
		mayOrphan = mayOrphan && sp.HasNull(e.Feature)
		nonNull := 0
		for _, v := range col {
			if !feature.IsNull(v) {
				nonNull++
			}
		}
		ix.asc[d] = make([]int32, nonNull) // exact: growing from nil leaves 4× the list as garbage
		cols = append(cols, col)
		lists = append(lists, ix.asc[d])
	}
	feature.OrderColumns(cols, lists, make([]int32, sp.N()))
	if !mayOrphan {
		return ix
	}
	for i := range sp.N() {
		if !slices.ContainsFunc(cols, func(col []float64) bool { return !feature.IsNull(col[i]) }) {
			ix.orphans = append(ix.orphans, int32(i))
		}
	}
	return ix
}

// cmpByValue is the total order every dimension list uses: ascending by
// the items' value in the feature column, ties broken by dense ID. Lists
// exclude null values, so the comparison never sees NaN. NewIndex reaches
// the order through the radix kernel; mergeList's small batches and the
// tests compare with this.
func cmpByValue(col []float64) func(a, b int32) int {
	return func(a, b int32) int {
		va, vb := col[a], col[b]
		if va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	}
}

// Space returns the space the index was built over.
func (ix *Index) Space() *feature.Space { return ix.space }

// pkg is a package under construction: its member ids, aggregate state and
// cached utility.
type pkg struct {
	ids   []int
	state *feature.State
	util  float64
	// bound is the upper-exp extension bound as of boundRound. The boundary
	// vector τ only worsens over time, so a stale bound remains a sound
	// upper bound; it is refreshed lazily (every boundRefresh rounds).
	bound      float64
	boundRound int
	// dead marks a package an elided round's refresh ruled out: it stays in
	// Q+, inert, until the next full round's sweep releases it.
	dead bool
}

// boundRefresh is how many accessed items may pass before a queued
// package's extension bound is recomputed against the current τ.
const boundRefresh = 16

// dueEntry schedules a package's next lazy refresh: p took its bound in
// round, and is due again boundRefresh rounds later unless the entry went
// stale meanwhile (p released, or re-bounded under a newer entry).
type dueEntry struct {
	p     *pkg
	round int
}

// runMem is what a run borrows from its index's memPool and hands back when
// it ends — everything a search uses but the result it returns: the run
// itself, its cursors, pad descriptors and kernel plans (rebuilt in place
// per search), the candidate heap with its packages' ids, the expandable
// queue Q+, the recycled package shells and states (every package left in
// Q+ joins them), the due queue, expand's per-round scratch, the empty state,
// which nothing writes, and a sketch-refine search's cluster scratch.
type runMem struct {
	r          run
	lists      []listCursor
	padTaus    []float64
	initTaus   []float64
	modeBuf    []uint8 // backs padModes once materialized
	initBuf    []uint8 // backs initModes
	skipDims   []int
	listDims   []int
	scorePlan  *feature.ScorePlan
	padPlan    *feature.PadPlan
	cands      candHeap
	ranked     []pkgspace.Scored // result's merge scratch
	qPlus      []*pkg
	freeStates []*feature.State
	freePkgs   []*pkg
	due        []dueEntry
	newcomers  []*pkg
	stScratch  []*feature.State
	guScratch  []float64
	drain      []int32
	headBuf    []float64 // backs headRows once built
	emptyState *feature.State
	// The refine's: the bounding run's cluster mask and scored clusters, and
	// the context the refine run reads them through.
	open   []bool
	scored []clusterScore
	part   partCtx
}

// resize returns buf at length n, reusing its storage when it holds n; the
// contents are the caller's to overwrite.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// run carries the mutable state of one Top-k-Pkg execution.
type run struct {
	ix   *Index
	u    *feature.Utility
	opts Options

	seen      *seenSet
	accessed  int
	created   int
	truncated bool
	maxQueue  int
	round     int

	// What an elided round reads instead of sweeping Q+ (elide): due
	// (runMem) is the refresh schedule, ordered by round from dueHead on;
	// etaUp is the largest bound among Q+'s live (not dead) packages and
	// upHolder a package holding it.
	dueHead  int
	etaUp    float64
	upHolder *pkg

	// The membership bound: emptyState (runMem) scores singletons,
	// initModes/initTaus (runMem) freeze the pad descriptors at their initial values —
	// every list's τ at its best — so headBound soundly bounds packages joined
	// at any later point of the trace, not just extensions of the current
	// boundary. heads, the space's skyline, is set only under the dominance
	// filter's gate.
	heads     *skyline.Set
	initModes []uint8
	domPruned int

	// The membership screen (headBelow): with every init mode PadTau and no
	// skip dimension (screen), headBound is the max over pad counts j = 0..φ−1
	// of a form affine in the item's list values, a_j + Σ c_j,l·t_l, frozen
	// with τ. headRows (runMem) holds the φ rows [a_j, c_j,0, …] once the
	// run first screens a draw — nil until then, so a run that never screens
	// never builds them.
	screen   bool
	headRows []float64

	// Sketch-refine context (nil for plain runs): pc carries the sketch
	// floor L, the partition and the refine's opened-cluster mask. floorL
	// and mask cache pc's (-Inf and nil when absent) for the hot loops.
	pc     *partCtx
	floorL float64
	mask   []bool

	// padModes/padTaus (runMem) mirror r.lists in order (ascending
	// dimension), updated as each cursor's τ advances; the fused-kernel plans
	// (runMem) hoist the per-dimension constants out of the hot loops:
	// scorePlan drives ScoreAfter, padPlan the pad kernel.
	padModes []uint8

	// fastPad is true while every pad mode is PadTau (no nullable list
	// feature, no exhausted cursor): the precondition of expand's package
	// verdict. padModes stays nil — the kernel's PadTau throughout — until
	// it is cleared.
	fastPad bool
	// slack keeps expand's barren-package test conservative (newRun).
	slack float64
	// drainUnlisted is set when a profile dimension has weight ±0 and an
	// active list's feature has nulls: only then can an item sit on no active
	// list (non-null only where the weight is zero) yet outside
	// Index.orphans, which exec must drain as well (unlisted).
	drainUnlisted bool

	// The memory the run borrows from its index, the run included (nil once
	// handed back). Active list cursors (lists) hold entry dim, position,
	// boundary value and direction; cands is the result heap. Packages
	// dropped from Q+ donate their aggregate states and id buffers to newly
	// materialized children; stScratch/guScratch back expand's batched
	// grow-utility pre-pass — per round, the states of the queued packages no
	// verdict rules out and their ScoreAfter utilities against the drawn item,
	// computed in one transposed sweep — and truncate borrows guScratch for
	// the queued bounds.
	*runMem
}

// newChild materializes p ∪ {item} with the given precomputed utility and
// extension bound (taken this round), reusing a recycled pkg shell and state
// when available. The child state is grown through the score plan
// (GrowFrom), which only maintains the dimensions the run ever reads.
func (r *run) newChild(p *pkg, item int, util, bound float64) *pkg {
	np := r.newPkg()
	np.state.GrowFrom(p.state, r.scorePlan, int32(item))
	np.ids = append(append(np.ids[:0], p.ids...), item)
	np.util = util
	np.bound = bound
	r.schedule(np)
	return np
}

// newPkg takes a recycled package shell and state when there are any. The
// state's contents are the caller's to overwrite.
func (r *run) newPkg() *pkg {
	var np *pkg
	if n := len(r.freePkgs); n > 0 {
		np = r.freePkgs[n-1]
		r.freePkgs = r.freePkgs[:n-1]
		np.dead = false
	} else {
		np = &pkg{}
	}
	if n := len(r.freeStates); n > 0 {
		np.state = r.freeStates[n-1]
		r.freeStates = r.freeStates[:n-1]
	} else {
		np.state = feature.NewState(r.ix.space)
	}
	return np
}

// release recycles a package leaving Q+. Candidates keep their own sorted
// id copies (candHeap), so nothing aliases the recycled buffers.
func (r *run) release(p *pkg) {
	r.freeStates = append(r.freeStates, p.state)
	p.state = nil
	r.freePkgs = append(r.freePkgs, p)
}

// schedule stamps p's bound as taken this round and queues its next refresh.
// Rounds only grow, so appending keeps the due queue ordered by round.
func (r *run) schedule(p *pkg) {
	p.boundRound = r.round
	r.due = append(r.due, dueEntry{p, r.round})
}

// borrowMem claims the index's recycled run memory, or allocates it. Its
// run is the caller's to set; its buffers are emptied.
func (ix *Index) borrowMem() *runMem {
	m, _ := ix.memPool.Get().(*runMem)
	if m == nil {
		m = &runMem{
			emptyState: feature.NewState(ix.space),
			scorePlan:  &feature.ScorePlan{},
			padPlan:    &feature.PadPlan{},
		}
	}
	m.lists, m.due = m.lists[:0], m.due[:0]
	return m
}

// returnMem releases every package still queued and hands the run's memory
// — the run with it — back to its index for the next search. Neither the
// run nor anything read from its memory may be touched afterwards: the
// next search over the index may be writing it.
func (r *run) returnMem() {
	m := r.runMem
	for _, p := range m.qPlus {
		r.release(p)
	}
	m.qPlus = m.qPlus[:0]
	r.runMem = nil
	r.ix.memPool.Put(m)
}

type listCursor struct {
	dim  int       // profile entry index
	feat int       // underlying item feature
	col  []float64 // the feature's value column (τ reads)
	desc bool      // true: traverse descending (weight > 0)
	pos  int       // entries passed: drawn, or closed under a refine mask
	ids  []int32
	tau  float64 // value of the last accessed item (best possible unseen)
	done bool
	gap  float64 // utility per unit short of τ: w/scale (sum), ÷ φ (avg), else 0
}

// at returns the id at traversal position pos (from the desirable end).
func (lc *listCursor) at(pos int) int32 {
	if lc.desc {
		return lc.ids[len(lc.ids)-1-pos]
	}
	return lc.ids[pos]
}

// TopK runs Top-k-Pkg for utility u over the indexed space.
func (ix *Index) TopK(u *feature.Utility, opts Options) (Result, error) {
	if opts.K <= 0 {
		return Result{}, fmt.Errorf("search: K must be positive, got %d", opts.K)
	}
	if len(u.W) != ix.space.Dims() {
		return Result{}, fmt.Errorf("search: utility has %d dims, space has %d", len(u.W), ix.space.Dims())
	}
	if opts.Candidate != nil {
		opts.ExpandAll = true
	}
	if ps := ix.partitionFor(u, opts); ps != nil {
		return ix.topKPartitioned(u, opts, ps)
	}
	return ix.topKRun(u, opts, nil)
}

// topKRun executes one Top-k-Pkg trace, optionally under a partition
// context (sketch floor + refine mask).
func (ix *Index) topKRun(u *feature.Utility, opts Options, pc *partCtx) (Result, error) {
	r, ok := ix.newRun(u, opts, pc)
	if !ok {
		return ix.degenerate(opts), nil
	}
	r.exec()
	res := r.result(nil)
	r.returnMem()
	return res, nil
}

// newRun builds the cursors, kernel plans and pruning state of one run
// without executing it (the beamed sketch-refine path needs the plans to
// bound clusters before deciding what to search). The run and all it uses
// come from the index's recycled memory, which the caller hands back
// (returnMem) once it has taken the run's result. ok is false for the
// degenerate no-active-list case, whose memory is handed back already:
// r is then nil.
func (ix *Index) newRun(u *feature.Utility, opts Options, pc *partCtx) (r *run, ok bool) {
	m := ix.borrowMem()
	r = &m.r
	*r = run{
		ix:       ix,
		u:        u,
		opts:     opts,
		maxQueue: opts.MaxQueue,
		pc:       pc,
		floorL:   negInf,
		fastPad:  true,
		runMem:   m,
	}
	if pc != nil {
		r.floorL = pc.floorL
		r.mask = pc.mask
	}
	if r.maxQueue == 0 {
		r.maxQueue = DefaultMaxQueue
	}
	// Build the active list cursors (Algorithm 2 line 2): one per entry
	// with non-zero weight, traversed from the desirable end.
	zeroWeight, nullable := false, false
	for d := 0; d < ix.space.Dims(); d++ {
		e := ix.space.Profile.Entry(d)
		if e.Agg == feature.AggNull {
			continue
		}
		if u.W[d] == 0 {
			zeroWeight = true
			continue
		}
		lc := listCursor{dim: d, feat: e.Feature, col: ix.space.Col(e.Feature), desc: u.W[d] > 0, ids: ix.asc[d]}
		// Initialize τ to the best value the run can draw — the list's top,
		// or under a refine mask its first open entry: unseen items can
		// never beat it. A list with nothing to draw is absent.
		if !r.seek(&lc) {
			continue
		}
		lc.tau = lc.col[lc.at(lc.pos)]
		r.lists = append(r.lists, lc)
	}
	if len(r.lists) == 0 {
		r.returnMem()
		return nil, false
	}
	// The weighted dimensions without a list pad by skipping; the lists are
	// ascending by dimension, like the walk.
	r.skipDims, r.listDims = r.skipDims[:0], r.listDims[:0]
	for d, li := 0, 0; d < ix.space.Dims(); d++ {
		if li < len(r.lists) && r.lists[li].dim == d {
			r.listDims = append(r.listDims, d)
			li++
		} else if u.W[d] != 0 {
			r.skipDims = append(r.skipDims, d)
		}
	}
	r.padTaus = resize(r.padTaus, len(r.lists))
	for li := range r.lists {
		lc := &r.lists[li]
		r.padTaus[li] = lc.tau
		if ix.space.HasNull(lc.feat) {
			r.setPadMode(li, feature.PadTauOrSkip)
			nullable = true
		}
		// expand's barren-package constants. Its test compares four kernel
		// values, each a sum of D terms |w·a/scale| ≤ M_d = |w|·A_d/scale (× φ
		// for sum; A_d the list's largest |value|) that φ adds, a multiply, two
		// divides and D adds round by ≤ (φ+D+3)·2⁻⁵³·ΣM_d in all: under
		// 2⁻⁴⁷·ΣM_d at φ = 3, D = 5 — 10⁵ times below the slack, 2⁻³⁰·ΣM_d —
		// and below it whenever φ + D + 3 < 2²³.
		ws := u.W[lc.dim] / ix.space.Scale(lc.dim)
		a := max(math.Abs(lc.col[lc.ids[0]]), math.Abs(lc.col[lc.ids[len(lc.ids)-1]]))
		switch phi := float64(ix.space.MaxSize); ix.space.Profile.Entry(lc.dim).Agg {
		case feature.AggSum:
			lc.gap, a = ws, a*phi
		case feature.AggAvg:
			lc.gap = ws / phi
		}
		r.slack += 0x1p-30 * math.Abs(ws) * a
	}
	r.drainUnlisted = zeroWeight && nullable
	r.scorePlan.Reset(ix.space, u)
	r.padPlan.Reset(ix.space, u, r.skipDims, r.listDims)
	r.cands.reset(opts.K, ix.space.MaxSize)

	// Freeze the pad descriptors now — every τ at its list's best value — so
	// headBound bounds membership in any package of the trace (exec), and a
	// partition context's cluster bounds with it; bound pruning's strict
	// admission tests are what keep equal-utility tie-breaks unreachable for
	// what the bound rules out. Skipping a draw on it (the dominance filter)
	// is provably safe only for a utility monotone for the profile: a
	// dominated item is then pointwise no better than its dominator on every
	// weighted dimension.
	if r.padModes != nil {
		r.initBuf = append(r.initBuf[:0], r.padModes...)
		r.initModes = r.initBuf
	}
	r.initTaus = append(r.initTaus[:0], r.padTaus...)
	r.screen = r.padModes == nil && len(r.skipDims) == 0
	if !opts.DisableDominancePrune && u.SetMonotone(ix.space.Profile) {
		r.heads = ix.Heads()
	}
	return r, true
}

// exec runs the prepared trace to completion.
//
// A run has one membership bound per drawn item, hb = headBound(item): it
// dominates the utility and the extension bound of every package containing
// the item (list tops bound every item, so the argument is
// upperExp's own and holds for any profile). hb strictly below the k-th best
// — strictly, which keeps equal-utility tie-breaks reachable — proves the item
// can head or join no package that enters the results, with two consequences:
//
//  1. A non-head item under the dominance filter's monotone gate is not
//     expanded at all. It still advanced τ (nextItem) and counts as accessed.
//  2. Any other item, once the heap is full, makes its round barren: its
//     child-creation test (gu > ηlo || bound > ηlo) fails for every queued
//     package, so the round is elided — it runs only the bound refreshes due
//     in it (elide), not expand's sweep of Q+.
//
// With the heap full and every pad descriptor PadTau, expand takes the same
// verdict per queued package from its own bound: a package bounding below
// need(item) creates no child (expand). A need above ηup, which bounds every
// live package, rules out all of them, so the round is barren as well; exec
// tests that first, for one pass over the lists and no division, and takes
// hb — through its screen (headBelow) — only when it fails, or for the
// dominance skip's non-head draws. Every test only chooses between paths
// that leave the same trace.
//
// The candidates stay in the run's heap, which result copies out; the run's
// memory goes back to its index only after that (returnMem), so the next
// search over the index recycles it.
func (r *run) exec() {
	ix := r.ix
	opts := r.opts
	pool := &ix.seenPool
	if ix.seenSrc != nil {
		pool = &ix.seenSrc.seenPool
	}
	seen, _ := pool.Get().(*seenSet)
	if seen == nil || len(seen.marks) != ix.space.N() {
		seen = &seenSet{marks: make([]uint64, ix.space.N())}
	}
	seen.stamp++
	r.seen = seen
	defer pool.Put(seen)

	empty := r.newPkg()
	empty.state.CopyFrom(r.emptyState)
	empty.ids, empty.util = empty.ids[:0], 0
	empty.bound = r.upperExp(empty.state)
	r.schedule(empty)
	r.qPlus = append(r.qPlus, empty)
	r.etaUp, r.upHolder = empty.bound, empty

	rr := 0
	for {
		// Draw the next item in round-robin order (Algorithm 2 lines 4–6).
		item, ok := r.nextItem(&rr)
		if !ok {
			break
		}
		if r.seen.marks[item] == r.seen.stamp {
			continue
		}
		r.seen.marks[item] = r.seen.stamp
		r.accessed++
		etaLo := r.cands.kthUtility()
		// Dominance skip (consequence 1). While the heap is not full ηlo is
		// -Inf and nothing is skipped (unless a sketch floor is active, which
		// is a sound k-th stand-in from the start). A draw it keeps has
		// hb ≥ ηlo, so its round is not barren by consequence 2.
		bounded := false
		if r.heads != nil && !r.heads.Contains(item) {
			if r.headBelow(item, max(etaLo, r.floorL)) {
				r.domPruned++
				if opts.MaxAccessed > 0 && r.accessed >= opts.MaxAccessed {
					r.truncated = true
					break
				}
				continue
			}
			bounded = true
		}
		// Barren round: by the package verdict, or (consequence 2) against ηlo
		// alone, −∞ until the heap fills — until then every child is created,
		// whatever floorL says.
		need := r.need(item)
		var etaUp float64
		if need > r.etaUp || !bounded && r.headBelow(item, etaLo) {
			etaLo, etaUp = r.elide(item, need)
		} else {
			etaLo, etaUp = r.expand(int(item), need)
		}
		if etaUp <= etaLo || len(r.qPlus) == 0 {
			break
		}
		if opts.MaxAccessed > 0 && r.accessed >= opts.MaxAccessed {
			r.truncated = true
			break
		}
	}
	// Drain the items on no active list — orphans, null on every profile
	// feature, and under a zero weight the items non-null only on
	// zero-weighted dimensions (drainUnlisted): they can only matter through
	// size effects (avg denominators), so only in ExpandAll mode can they
	// change results; access them for completeness — within the access
	// budget, like any other draw.
	if len(r.qPlus) > 0 {
		drain := r.ix.orphans
		if r.drainUnlisted {
			drain = r.unlisted()
		}
		for _, o := range drain {
			if r.seen.marks[o] == r.seen.stamp || r.closed(o) {
				continue
			}
			if opts.MaxAccessed > 0 && r.accessed >= opts.MaxAccessed {
				r.truncated = true
				break
			}
			r.seen.marks[o] = r.seen.stamp
			r.accessed++
			etaLo, etaUp := r.expand(int(o), r.need(o))
			if etaUp <= etaLo || len(r.qPlus) == 0 {
				break
			}
		}
	}
}

// result ranks the run's candidates — merged with a finished sketch run's
// when sk is non-nil, duplicates keeping the run's — and returns the k best
// with the work counters of both. It is the one allocation of a search: the
// packages are copied out of the runs' memory, so the caller hands that
// back afterwards (returnMem; not deferred — a run a panic cut short may
// leave Q+ mid-sweep, with packages listed twice, and must not hand that to
// the next search) and nothing of the result aliases it.
func (r *run) result(sk *run) Result {
	res := Result{
		Accessed:  r.accessed,
		Created:   r.created,
		Truncated: r.truncated,
		DomPruned: r.domPruned,
	}
	best := r.cands.rank()
	if sk != nil {
		res.Accessed += sk.accessed
		res.Created += sk.created
		res.Truncated = res.Truncated || sk.truncated
		res.DomPruned += sk.domPruned
		r.ranked = mergeScored(r.ranked[:0], best, sk.cands.rank(), r.opts.K)
		best = r.ranked
	}
	res.Packages = copyScored(best)
	return res
}

// headBound returns a sound upper bound on the utility of every package
// containing the item: the max of the singleton's own utility and the
// upper-exp pad bound of the singleton taken against the *initial* τ
// vector (each list's best value). Initial τ is what makes the bound valid
// for packages whose other members were drawn before the item — their
// values exceed the current boundary but never the lists' tops.
func (r *run) headBound(id int32) float64 {
	b := r.emptyState.ScoreAfter(r.scorePlan, id)
	if ext := r.growBound(r.emptyState, id, r.initModes, r.initTaus); ext > b {
		b = ext
	}
	return b
}

// headBelow reports whether headBound(id) < bar. On a screened run it decides
// from headEst when the estimate clears the bar by more than the slack, and
// takes the exact bound only when it does not: the estimate and headBound are
// two float evaluations of one real value, each a sum of the same D terms
// bounded as expand's four kernel values are, so they differ by under
// slack/10⁵ (newRun) and a clearance of the slack decides the exact test.
func (r *run) headBelow(id int32, bar float64) bool {
	if bar == negInf {
		return false // hb is finite
	}
	if r.screen {
		est := r.headEst(id)
		if est+r.slack < bar {
			return true
		}
		if est-r.slack >= bar {
			return false
		}
	}
	return r.headBound(id) < bar
}

// headEst evaluates the membership forms (headRows, built on first use) at
// the item: max over j of a_j + Σ c_j,l·t_l, with no division.
func (r *run) headEst(id int32) float64 {
	if r.headRows == nil {
		r.buildHeadRows()
	}
	n := len(r.lists) + 1
	best := negInf
	for rows := r.headRows; len(rows) > 0; rows = rows[n:] {
		f := rows[0]
		for li := range r.lists {
			f += rows[1+li] * r.lists[li].col[id]
		}
		if f > best {
			best = f
		}
	}
	return best
}

// buildHeadRows writes the membership forms: the singleton padded j times
// against the frozen τ₀ scores, per list with ws = w/scale, (t + jτ₀)·ws for
// sum, (t + jτ₀)·ws/(1+j) for avg, and for max and min (j ≥ 1) ws times
// whichever of t and τ₀ the aggregate keeps. τ₀ is the list's best drawable
// value, so that is τ₀ for max on a descending list or min on an ascending
// one, and t otherwise; j = 0 is the singleton's own score, Σ t·ws.
func (r *run) buildHeadRows() {
	sp := r.ix.space
	n := len(r.lists) + 1
	rows := resize(r.headBuf, sp.MaxSize*n)
	for j := range sp.MaxSize {
		row := rows[j*n : (j+1)*n]
		row[0] = 0
		for li := range r.lists {
			lc := &r.lists[li]
			tau, c := r.initTaus[li], r.u.W[lc.dim]/sp.Scale(lc.dim)
			switch sp.Profile.Entry(lc.dim).Agg {
			case feature.AggSum:
				row[0] += float64(j) * tau * c
			case feature.AggAvg:
				c /= float64(1 + j)
				row[0] += float64(j) * tau * c
			case feature.AggMax:
				if j > 0 && lc.desc {
					row[0] += tau * c
					c = 0
				}
			case feature.AggMin:
				if j > 0 && !lc.desc {
					row[0] += tau * c
					c = 0
				}
			}
			row[1+li] = c
		}
	}
	r.headBuf, r.headRows = rows, rows
}

// closed reports whether the beamed refine's cluster mask excludes the item
// (never, on a run without one).
func (r *run) closed(id int32) bool {
	return r.mask != nil && !r.mask[r.pc.p.Assign[id]]
}

// unlisted returns, ascending, the index's items null on every active list's
// feature: the orphans, and the items of the zero-weighted dimensions' lists
// that no active list holds. Index.orphans is computed per profile, not per
// utility, so only a drainUnlisted run needs this.
func (r *run) unlisted() []int32 {
	out := append(r.drain[:0], r.ix.orphans...)
	for d, ids := range r.ix.asc {
		if r.u.W[d] != 0 {
			continue
		}
	items:
		for _, id := range ids {
			for li := range r.lists {
				if !feature.IsNull(r.lists[li].col[id]) {
					continue items
				}
			}
			out = append(out, id)
		}
	}
	r.drain = out
	slices.Sort(out)
	return slices.Compact(out)
}

// seek rests the cursor on the next entry the run may draw, passing over
// closed ids; false when the list has none left. Resting on the next open
// entry — at construction and after every draw — is what makes a masked
// walk of the shared list read exactly as a list filtered through the mask
// would: τ starts at the first open entry and the cursor is done the moment
// the last open entry is drawn, wherever the physical list ends.
func (r *run) seek(lc *listCursor) bool {
	for lc.pos < len(lc.ids) && r.closed(lc.at(lc.pos)) {
		lc.pos++
	}
	return lc.pos < len(lc.ids)
}

// nextItem performs one sorted access in round-robin fashion, updating the
// boundary value of the list it draws from. ok is false when every list is
// exhausted.
func (r *run) nextItem(rr *int) (int32, bool) {
	n := len(r.lists)
	for tries := 0; tries < n; tries++ {
		li := *rr
		lc := &r.lists[li]
		*rr = (*rr + 1) % n
		if lc.done {
			continue
		}
		id := lc.at(lc.pos)
		lc.pos++
		lc.tau = lc.col[id]
		r.padTaus[li] = lc.tau
		if !r.seek(lc) {
			lc.done = true
			r.setPadMode(li, feature.PadSkip)
		}
		return id, true
	}
	return 0, false
}

// setPadMode sets list li's pad mode, materializing padModes — nil while
// every list pads with τ — and clearing fastPad.
func (r *run) setPadMode(li int, mode uint8) {
	if r.padModes == nil {
		r.modeBuf = resize(r.modeBuf, len(r.lists))
		clear(r.modeBuf) // PadTau is the zero mode
		r.padModes = r.modeBuf
	}
	r.padModes[li] = mode
	r.fastPad = false
}

// need returns the package verdict's bar for the drawn item (expand): −∞
// unless, on two preconditions — a full heap, every pad descriptor PadTau
// (r.fastPad) — it is ηlo − slack + Δ(t), Δ(t) = Σ_sum w(τ−t)/scale +
// Σ_avg w(τ−t)/(scale·φ) ≥ 0 being what the item falls short of τ by.
func (r *run) need(item int32) float64 {
	if !r.fastPad || !r.cands.full() {
		return negInf
	}
	need := r.cands.kthUtility() - r.slack
	for li := range r.lists {
		lc := &r.lists[li]
		need += lc.gap * (lc.tau - lc.col[item])
	}
	return need
}

// expand implements Algorithm 4 for the newly accessed item on a round that
// is not barren (exec), returning the updated (ηlo, ηup) thresholds. It
// sweeps Q+ — lazy bound refresh, bound drops, the re-check of every queued
// package, and the release of the packages elided rounds found dead — but
// only a package whose bound reaches need (run.need) is scored against the
// item and may create its child; queue, counters and thresholds come out as
// the full round would leave them. p ∪ {t} padded j times scores at least
// Δ(t) below p padded j+1 times, so max(gu, growBound(p, t)) ≤ p.bound −
// Δ(t), and below ηlo, which only rises, no child is created (README,
// "Barren packages").
//
// Two deliberate corrections to the paper's pseudo-code:
//
//  1. The empty package always expands and is never dropped by the
//     improvement test. The paper's line 3 (grow only on strict
//     improvement) silently returns nothing when all achievable utilities
//     are negative (e.g. all-negative weights), since no singleton improves
//     on U(∅) = 0; packages must be non-empty, so ∅ is a seed, not a
//     candidate.
//  2. "Can p still improve" uses the running-max multi-pad bound
//     (upperExp) rather than a single τ-pad. The paper's single-pad test
//     relies on Lemma 3 (non-increasing pad marginals), which fails for
//     avg: marginals increase toward zero as the average converges to τ,
//     so one pad can lose while two pads win when another dimension
//     compensates.
func (r *run) expand(item int, need float64) (etaLo, etaUp float64) {
	phi := r.ix.space.MaxSize
	etaUp = negInf
	etaLo = r.cands.kthUtility()
	if need > negInf && r.ix.barrenAudit != nil {
		defer r.ix.barrenAudit(r, int32(item), need, false)()
		need = negInf
	}

	r.round++
	// The sweep refreshes whatever falls due this round and reschedules it.
	for r.popDue() != nil {
	}
	if n := len(r.qPlus); 2*n > cap(r.guScratch) {
		// Scratch for the most a round can leave, twice Q+; grown by doubling.
		c := max(4*n, 32)
		r.stScratch, r.newcomers = make([]*feature.State, 0, c), make([]*pkg, 0, c)
		r.guScratch = make([]float64, c)
	}
	// Batched grow-utility pre-pass: score the packages need admits against
	// the item in one transposed sweep (dimensions outer, states inner),
	// which hoists the per-dimension constants out of the per-package loop.
	// The values are exactly what per-package ScoreAfter calls would return,
	// consumed below in the same decision order; a package the bound prune
	// releases before the improvement test leaves its entry unused.
	states := r.stScratch[:0]
	for _, p := range r.qPlus {
		if !p.dead && p.bound >= need {
			states = append(states, p.state)
		}
	}
	gus := r.guScratch[:len(states)]
	feature.ScoreAfterBatch(r.scorePlan, int32(item), states, gus)

	survivors := r.qPlus[:0]
	newcomers := r.newcomers[:0]
	var holder *pkg // of etaUp
	gi := 0         // gathered packages so far: gus[gi-1] is p's entry, if it has one
	for _, p := range r.qPlus {
		if p.dead {
			r.release(p)
			continue
		}
		live := p.bound >= need // as gathered: before the refresh below
		if live {
			gi++
		}
		// Refresh the extension bound lazily; a stale bound is still an
		// upper bound, so pruning on it stays sound.
		if r.round-p.boundRound >= boundRefresh {
			p.bound = r.upperExp(p.state)
			r.schedule(p)
		}
		if p.bound <= etaLo || p.bound < r.floorL {
			// Neither p's extensions nor their candidacies can beat the
			// current k-th best (or the sketch floor, a sound stand-in
			// before the heap fills): drop p without expanding it.
			r.release(p)
			continue
		}
		// Utility after adding the item, from the batched pre-pass. Line 3:
		// the paper grows a package only when the new item strictly improves
		// it; ExpandAll disables that heuristic, and the empty package always
		// grows (correction 1).
		if live && (r.opts.ExpandAll || p.state.Size == 0 || gus[gi-1] > p.util) {
			gu := gus[gi-1]
			// The child's extension bound, taken against this round's τ
			// straight from p's state. A child at the size cap has no
			// extensions (upperExp's −∞), so it is never bounded, grown or
			// queued: it can only be a candidate, offered from p's ids.
			size, bound := p.state.Size+1, negInf
			if size < phi {
				bound = r.growBound(p.state, int32(item), r.padModes, r.padTaus)
			}
			// Create the child only if it can matter — as a candidate (gu
			// above the bar) or as an ancestor of one (bound above the bar).
			if gu > etaLo || bound > etaLo {
				r.created++
				r.offer(p, item, gu)
				etaLo = r.cands.kthUtility()
				// Lines 5–8: the new package becomes expandable — and only
				// then gets a state of its own — while its extensions can
				// still matter.
				if r.keep(size, gu, bound, etaLo) {
					np := r.newChild(p, item, gu, bound)
					if bound > etaUp {
						etaUp, holder = bound, np
					}
					newcomers = append(newcomers, np)
				}
			}
		}
		// Lines 9–11: re-check p itself against the (possibly stale)
		// boundary bound.
		if r.keep(p.state.Size, p.util, p.bound, etaLo) {
			if p.bound > etaUp {
				etaUp, holder = p.bound, p
			}
			survivors = append(survivors, p)
		} else {
			// p moves to Q−: it was already offered as a candidate when
			// created, so it leaves the expandable queue (and donates its
			// buffers to future children).
			r.release(p)
		}
	}
	r.qPlus = append(survivors, newcomers...)
	r.etaUp, r.upHolder = etaUp, holder

	if r.maxQueue > 0 && len(r.qPlus) > r.maxQueue {
		r.truncate()
		r.rescanUp()
	}
	return etaLo, etaUp
}

// elide runs a barren round (exec): the drawn item creates no child, so
// what the full round's sweep of Q+ would do reduces to its bound refreshes
// and drops, and only the refreshes cannot wait. A barren round moves
// neither ηlo nor the queue's order, and nothing but a refresh changes a
// queued bound — which only falls, as τ does, while ηlo only rises — so the
// packages the sweep would drop stay droppable: the next full round's sweep
// drops a bound ≤ ηlo before it scores anything, and releases the packages
// marked dead here. Lazy refresh is Algorithm 3's own deferral; this defers
// the drops with it. Per round, then: the refreshes due now, in schedule
// order, each against this round's τ exactly as the sweep would take it — a
// package its refresh rules out (keep) is marked dead — and the largest live
// bound, rescanned only when its holder was re-bounded. That bound reaching
// no higher than ηlo means every package left would have been dropped: Q+
// is emptied, as the sweep would have left it. Trace, counters, queue order
// and every bound's bits are the full round's (TestBarrenVerdictSound).
// need is the item's package verdict bar, which only the audit reads.
func (r *run) elide(item int32, need float64) (etaLo, etaUp float64) {
	etaLo = r.cands.kthUtility()
	if r.ix.barrenAudit != nil {
		defer r.ix.barrenAudit(r, item, need, true)()
	}
	r.round++
	rescan := false
	for p := r.popDue(); p != nil; p = r.popDue() {
		p.bound = r.upperExp(p.state)
		if r.keep(p.state.Size, p.util, p.bound, etaLo) {
			r.schedule(p)
		} else {
			p.boundRound, p.dead = r.round, true
		}
		rescan = rescan || p == r.upHolder
	}
	if rescan {
		r.rescanUp()
	}
	if r.etaUp <= etaLo {
		for _, p := range r.qPlus {
			r.release(p)
		}
		r.qPlus = r.qPlus[:0]
	}
	return etaLo, r.etaUp
}

// popDue returns the next queued package whose refresh falls due this round,
// nil when none is left; it passes over stale entries (package released, or
// re-bounded since).
func (r *run) popDue() *pkg {
	for r.dueHead < len(r.due) {
		e := r.due[r.dueHead]
		if r.round-e.round < boundRefresh {
			break
		}
		r.dueHead++
		if e.p.state != nil && e.p.boundRound == e.round {
			return e.p
		}
	}
	// Keep the queue's storage proportional to what is pending.
	if r.dueHead >= 64 && 2*r.dueHead >= len(r.due) {
		r.due = r.due[:copy(r.due, r.due[r.dueHead:])]
		r.dueHead = 0
	}
	return nil
}

// rescanUp recomputes etaUp and its holder over Q+'s live packages.
func (r *run) rescanUp() {
	r.etaUp, r.upHolder = negInf, nil
	for _, p := range r.qPlus {
		if !p.dead && p.bound > r.etaUp {
			r.etaUp, r.upHolder = p.bound, p
		}
	}
}

// truncate enforces the Q+ cap, keeping the maxQueue packages with the
// highest extension bounds. The threshold is an order statistic of a scratch
// copy of the bound values (far cheaper than ordering the packages);
// survivors keep their queue order, with ties at the threshold resolved in
// queue order. Deterministic: the outcome depends only on the bounds and the
// queue order, never on how the statistic is found.
func (r *run) truncate() {
	bounds := r.guScratch[:len(r.qPlus)]
	for i, p := range r.qPlus {
		bounds[i] = p.bound
	}
	thr := selectKth(bounds, len(bounds)-r.maxQueue)
	// Packages strictly above the threshold all survive; ties at the
	// threshold fill the remaining slots in queue order.
	above := 0
	for _, p := range r.qPlus {
		if p.bound > thr {
			above++
		}
	}
	ties := r.maxQueue - above
	kept := r.qPlus[:0]
	for _, p := range r.qPlus {
		switch {
		case p.bound > thr:
			kept = append(kept, p)
		case p.bound == thr && ties > 0:
			ties--
			kept = append(kept, p)
		default:
			r.release(p)
		}
	}
	r.qPlus = kept
	r.truncated = true
}

// lowKthMax bounds lowKth's k: a full round at the beam's cap overflows by few.
const lowKthMax = 8

// lowKth is selectKth for k ≤ lowKthMax, xs longer than k and left as it is:
// one pass keeping the k+1 smallest so far ascending in low (the rest spill).
func lowKth(xs []float64, k int) float64 {
	var low [lowKthMax + 2]float64
	for i := range low {
		low[i] = posInf
	}
	for _, x := range xs {
		j := k + 1
		for ; j > 0 && low[j-1] > x; j-- {
			low[j] = low[j-1]
		}
		low[j] = x
	}
	return low[k]
}

// selectKth returns the k-th smallest element of xs (0-based), reordering
// xs in place — a median-of-three quickselect, past lowKth's range. The
// order statistic is uniquely defined, so truncation outcomes never depend on
// the selection algorithm's internals. xs must be NaN-free (bounds always are).
func selectKth(xs []float64, k int) float64 {
	if k <= lowKthMax {
		return lowKth(xs, k)
	}
	lo, hi := 0, len(xs)-1
	for hi > lo {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return xs[k]
		}
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		xs[lo], xs[mid] = xs[mid], xs[lo]
		pivot := xs[lo]
		i, j := lo, hi+1
		for {
			for i++; i <= hi && xs[i] < pivot; i++ {
			}
			for j--; xs[j] > pivot; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		xs[lo], xs[j] = xs[j], xs[lo]
		switch {
		case j == k:
			return xs[k]
		case j < k:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
	return xs[k]
}

// keep decides whether a package of the given size, utility and extension
// bound belongs in Q+. In ExpandAll (exact) mode retention is purely
// bound-based; in the paper's mode a package additionally leaves Q+ once no
// extension can improve on its own utility (the paper's line-9 semantics,
// which trades top-k completeness for a smaller queue). The empty package is
// exempt from the improvement test (correction 1 above).
func (r *run) keep(size int, util, bound, etaLo float64) bool {
	if size >= r.ix.space.MaxSize || math.IsInf(bound, -1) {
		return false
	}
	if bound <= etaLo || bound < r.floorL {
		return false
	}
	if !r.opts.ExpandAll && size > 0 && bound <= util {
		return false
	}
	return true
}

// offer proposes p ∪ {item}, of the given utility, as a result candidate.
// The utility pre-check avoids sorting the ids for the (common) packages
// that cannot enter the heap.
func (r *run) offer(p *pkg, item int, util float64) {
	if r.cands.full() && util < r.cands.kthUtility() {
		return
	}
	cand := r.cands.child(p.ids, item)
	if r.opts.Candidate != nil && !r.opts.Candidate(r.ix.space, cand) {
		return
	}
	r.cands.offer(pkgspace.Scored{Pkg: cand, Utility: util})
}

// upperExp is Algorithm 3 with a sound stopping rule: the maximum utility
// any proper extension of the package can reach, obtained by padding with
// the per-entry best imaginary contribution — the boundary value τ of the
// entry's list, or a null contribution when attainable (list exhausted, or
// the dataset has nulls on that feature) — up to the size cap, taking the
// running maximum over pad counts 1..φ−|p|. (The paper stops greedily at
// the first non-improving pad, justified by Lemma 3's non-increasing
// marginals; that lemma fails for avg — marginals increase toward zero as
// the average converges to τ — so the greedy stop can underestimate. The
// running maximum costs the same O(φ·d) and is always an upper bound.)
// Returns -Inf when the package is already at the size cap. The padding
// loop is the pad kernel (feature.State.PadUpper), driven by the pad
// descriptors nextItem keeps in sync with the cursors.
func (r *run) upperExp(st *feature.State) float64 {
	return st.PadUpper(r.padPlan, r.padModes, r.padTaus, r.ix.space.MaxSize)
}

// growBound is upperExp of st ∪ {item}, against the given pad descriptors
// (the run's current ones, or headBound's frozen initial ones): the pad
// kernel reads st and the item's column values and materializes nothing.
func (r *run) growBound(st *feature.State, item int32, modes []uint8, taus []float64) float64 {
	return st.PadUpperAfter(r.padPlan, item, modes, taus, r.ix.space.MaxSize)
}

// degenerate handles the all-zero-weight utility: every package scores 0,
// so return the K first packages in the deterministic tie-break order.
func (ix *Index) degenerate(opts Options) Result {
	res := Result{}
	count := 0
	pkgspace.Enumerate(ix.space, func(p pkgspace.Package) bool {
		if opts.Candidate != nil && !opts.Candidate(ix.space, p) {
			return count < opts.K
		}
		res.Packages = append(res.Packages, pkgspace.Scored{Pkg: p, Utility: 0})
		count++
		return count < opts.K
	})
	res.Created = count
	return res
}

var negInf, posInf = math.Inf(-1), math.Inf(1)

// candHeap keeps the best k scored packages: a min-heap ordered by utility
// ascending, ties keeping the smaller package (evicting the larger). Its
// packages' ids live in ids, one block of φ per heap slot, and a candidate
// is assembled in scratch; a candidate taking a slot copies itself into the
// block of the package it evicts, or into the next free one. Pushes fill
// the blocks in order and a root replacement keeps the root's, so the
// entries own blocks 0..len(xs)−1 between them.
type candHeap struct {
	k, phi  int
	xs      []pkgspace.Scored
	ids     []int
	scratch []int
}

// reset empties the heap for a run keeping the best k packages of at most
// phi items.
func (h *candHeap) reset(k, phi int) {
	h.k, h.phi, h.xs = k, phi, h.xs[:0]
}

func (h *candHeap) Len() int { return len(h.xs) }
func (h *candHeap) Less(i, j int) bool {
	if h.xs[i].Utility != h.xs[j].Utility {
		return h.xs[i].Utility < h.xs[j].Utility
	}
	return pkgspace.Less(h.xs[j].Pkg, h.xs[i].Pkg)
}
func (h *candHeap) Swap(i, j int) { h.xs[i], h.xs[j] = h.xs[j], h.xs[i] }
func (h *candHeap) Push(x any)    { h.xs = append(h.xs, x.(pkgspace.Scored)) }
func (h *candHeap) Pop() any {
	n := len(h.xs) - 1
	v := h.xs[n]
	h.xs = h.xs[:n]
	return v
}

func (h *candHeap) full() bool { return len(h.xs) >= h.k }

// kthUtility returns ηlo: the k-th best utility so far, or -Inf while fewer
// than k candidates exist.
func (h *candHeap) kthUtility() float64 {
	if !h.full() {
		return negInf
	}
	return h.xs[0].Utility
}

// child assembles ids ∪ {item}, sorted, in the heap's scratch: valid until
// the next call.
func (h *candHeap) child(ids []int, item int) pkgspace.Package {
	h.scratch = append(append(h.scratch[:0], ids...), item)
	slices.Sort(h.scratch)
	return pkgspace.Package{IDs: h.scratch}
}

// offer admits s, a candidate assembled by child, if it beats the k-th best.
func (h *candHeap) offer(s pkgspace.Scored) {
	if len(h.xs) < h.k {
		b := len(h.xs) * h.phi
		if len(h.ids) < b+h.phi {
			// The slots so far keep their blocks in the old array.
			h.ids = make([]int, max(2*len(h.ids), b+h.phi))
		}
		s.Pkg.IDs = append(h.ids[b:b:b+h.phi], s.Pkg.IDs...)
		h.xs = append(h.xs, s)
		heap.Fix(h, len(h.xs)-1) // heap.Push's sift, without boxing s
		return
	}
	root := &h.xs[0]
	if s.Utility > root.Utility || (s.Utility == root.Utility && pkgspace.Less(s.Pkg, root.Pkg)) {
		root.Pkg.IDs = append(root.Pkg.IDs[:0], s.Pkg.IDs...)
		root.Utility = s.Utility
		heap.Fix(h, 0)
	}
}

// rank sorts the heap's packages into descending-utility order in place and
// returns them; the heap is spent.
func (h *candHeap) rank() []pkgspace.Scored {
	pkgspace.SortScored(h.xs)
	return h.xs
}

// copyScored returns xs with every package's ids copied out, all into one
// allocation besides the list's own (nil for no packages).
func copyScored(xs []pkgspace.Scored) []pkgspace.Scored {
	if len(xs) == 0 {
		return nil
	}
	n := 0
	for _, s := range xs {
		n += len(s.Pkg.IDs)
	}
	out, ids := make([]pkgspace.Scored, len(xs)), make([]int, n)
	for i, s := range xs {
		m := copy(ids, s.Pkg.IDs)
		out[i] = pkgspace.Scored{Pkg: pkgspace.Package{IDs: ids[:m:m]}, Utility: s.Utility}
		ids = ids[m:]
	}
	return out
}
