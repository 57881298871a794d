// Sketch-refine partitioned search (Brucato et al., "Scalable Package
// Queries in Relational Database Systems", adapted to Top-k-Pkg): the
// catalogue is clustered into ~√n value-space groups (internal/partition);
// a search first sketches — runs the beamed kernel over the cluster
// representatives only, yielding real packages whose k-th utility L is a
// lower bound on the true k-th — and then refines inside the clusters that
// can matter: the ones the sketch candidates came from, plus the
// best-bounded others while they reach L, up to an item budget of
// 32·⌈√n⌉. The refine is the ordinary trace over the index's own sorted
// lists with cursors that pass over every id whose cluster is closed — no
// per-search copy of the lists, so its cost follows the clusters opened,
// not n. Sketch candidates merge into the final top-k so refinement never
// loses them. This is what makes anti-correlated catalogues — where the
// skyline covers ~half the items and dominance pruning is inert —
// sublinear in practice.
//
// Only beamed or budgeted runs partition: they are approximate by
// contract, and an uncapped, unbudgeted run — the exact oracle — always
// searches the whole index. The refine is still exact whenever neither the
// beam nor the item budget binds: a closed cluster then bounds strictly
// below L, which is at most the true k-th, so no package touching it can
// enter the results (TestPartitionExact).
//
// Partitioning engages for monotone, weighted, predicate-free utilities,
// once the catalogue reaches PartitionMinItems or a partition was
// materialized (EnsurePartition) or injected (SetPartition); every eligible
// search materializes it, so results within one epoch are consistent for
// result caching.
package search

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"toppkg/internal/feature"
	"toppkg/internal/partition"
	"toppkg/internal/pkgspace"
)

// PartitionMinItems is the catalogue size below which partitioning stays
// off unless a partition was materialized (EnsurePartition) or injected:
// below it the sketch-refine detour costs more than it saves.
const PartitionMinItems = 4096

// refineBudgetItems bounds how many items bound-admitted (non-candidate)
// clusters may add to a beamed refine: 32·⌈√n⌉ keeps the refine subset a
// vanishing fraction of large catalogues while leaving dozens of clusters
// of headroom over the sketch candidates.
func refineBudgetItems(n int) int {
	return 32 * partition.DefaultClusters(n)
}

// PartitionStats aggregates partition counters across searches; the
// catalogue shares one instance across its epochs' indexes so /healthz can
// report per-search refine behavior.
type PartitionStats struct {
	// Searches counts partition-engaged TopK runs.
	Searches atomic.Int64
	// SketchSkipped totals Result.SketchSkipped across runs.
	SketchSkipped atomic.Int64
	// ClustersOpened totals Result.RefineClustersOpened across runs.
	ClustersOpened atomic.Int64
}

// partState is the materialized partition of one index: the clustering
// plus a persistent subset index over the cluster representatives the
// sketch phase searches.
type partState struct {
	p      *partition.Partition
	sketch *Index
}

// partCtx threads the refine into a run: floorL is the sketch floor L, and
// the clusters to read were chosen before the first draw — cursors and the
// orphan drain pass over every id whose cluster mask closes.
type partCtx struct {
	p      *partition.Partition
	floorL float64
	mask   []bool
}

// ConfigurePartition sets the sink that aggregates the index's partition
// counters. Not synchronized: call before the index serves concurrent
// searches (the catalogue configures each epoch's index at build time).
func (ix *Index) ConfigurePartition(stats *PartitionStats) {
	ix.partStats = stats
}

// PeekPartition returns the partition if it has been materialized or
// injected, nil otherwise — without triggering the build.
func (ix *Index) PeekPartition() *partition.Partition {
	if ps := ix.part.Load(); ps != nil {
		return ps.p
	}
	return nil
}

// SetPartition injects a partition (the catalogue's incremental delta
// maintenance). A partition that is already present wins; the index never
// observes two different partitions.
func (ix *Index) SetPartition(p *partition.Partition) {
	if p == nil {
		return
	}
	ix.install(p)
}

// EnsurePartition materializes the partition with the given cluster count
// (<= 0 selects the ⌈√n⌉ default) and returns it; benchmarks use it to
// keep the build outside timed sections, tests to partition small spaces.
// Returns nil for an empty space.
func (ix *Index) EnsurePartition(clusters int) *partition.Partition {
	if ps := ix.part.Load(); ps != nil {
		return ps.p
	}
	ix.partOnce.Do(func() {
		if ix.space.N() > 0 {
			ix.install(partition.Build(ix.space, clusters))
		}
	})
	return ix.PeekPartition()
}

func (ix *Index) install(p *partition.Partition) {
	keep := make([]bool, ix.space.N())
	for _, rep := range p.Reps {
		if rep >= 0 {
			keep[rep] = true
		}
	}
	ix.part.CompareAndSwap(nil, &partState{p: p, sketch: ix.subsetIndex(keep)})
}

// partitionFor decides whether a run engages sketch-refine, materializing
// the partition if the index is eligible. A run partitions only when it is
// beamed or budgeted, its utility is monotone (the gate the cluster bounds'
// orientation needs, as the dominance filter's does), weighted (the
// degenerate path enumerates the whole space) and predicate-free, and its
// index holds PartitionMinItems items or a partition already.
func (ix *Index) partitionFor(u *feature.Utility, opts Options) *partState {
	if opts.DisablePartition || opts.Candidate != nil || opts.Expand != nil ||
		(opts.MaxQueue < 0 && opts.MaxAccessed <= 0) || !u.SetMonotone(ix.space.Profile) ||
		!slices.ContainsFunc(u.W, func(w float64) bool { return w != 0 }) {
		return nil
	}
	if ps := ix.part.Load(); ps != nil {
		return ps
	}
	if ix.space.N() < PartitionMinItems {
		return nil
	}
	ix.EnsurePartition(0)
	return ix.part.Load()
}

// topKPartitioned sketches over the representatives, then refines. When
// every representative is null on every weighted feature the sketch has no
// list to draw from — its degenerate path would list packages at a utility
// of 0 no search scored — so the run searches unpartitioned instead.
func (ix *Index) topKPartitioned(u *feature.Utility, opts Options, ps *partState) (Result, error) {
	// The representative set is ~√n items: dominance adds nothing.
	sketchOpts := Options{K: opts.K, ExpandAll: opts.ExpandAll, MaxQueue: DefaultMaxQueue, DisableDominancePrune: true}
	sk, ok := ps.sketch.newRun(u, sketchOpts, nil)
	if !ok {
		return ix.topKRun(u, opts, nil)
	}
	skRes := sk.exec()
	floorL := negInf
	if len(skRes.Packages) >= opts.K {
		floorL = skRes.Packages[opts.K-1].Utility
	}
	return ix.refineBeamed(u, opts, ps.p, skRes, floorL)
}

// refineBeamed walks the index's own sorted lists through a mask of the
// clusters that can matter — the ones the sketch candidates came from, then
// the best-bounded others while they reach L, up to the item budget — and
// merges the sketch candidates into the final top-k. Nothing is copied or
// filtered per search: the cost follows the clusters opened, not n. The
// masked walk is the trace a fresh index over the open clusters' items
// would run, bit for bit, on three invariants (run.seek, exec): a list's
// initial τ — and with it the frozen τ vector headBound pads with — is its
// first open entry's value, not the list top; a cursor is exhausted when
// its last open entry is drawn, not at the physical end (a list with no
// open entry is absent); and the orphan drain passes through the mask too.
// The mask is deterministic (bounds and cluster ids order it). Should no
// open item sit on an active list, the refine falls back to the
// unpartitioned search, as the sketch does.
func (ix *Index) refineBeamed(u *feature.Utility, opts Options, p *partition.Partition, skRes Result, floorL float64) (Result, error) {
	// rb only bounds the clusters: its frozen τ vector holds the full
	// lists' tops, which a bound over members of any cluster needs.
	rb, ok := ix.newRun(u, opts, nil)
	if !ok {
		return ix.topKRun(u, opts, nil)
	}
	open := make([]bool, p.K)
	for _, s := range skRes.Packages {
		for _, id := range s.Pkg.IDs {
			open[p.Assign[id]] = true
		}
	}
	type clusterScore struct {
		c     int32
		bound float64
	}
	used, opened := 0, 0 // items and clusters under the mask
	scored := make([]clusterScore, 0, p.K)
	for c := 0; c < p.K; c++ {
		switch {
		case open[c]:
			used += len(p.Members[c])
			opened++
		case len(p.Members[c]) > 0:
			// A cluster emptied by deletions bounds at the global ceiling
			// (nothing tightens its virtual member) yet holds nothing to
			// read: never score, open or count it. Nor is a cluster bounding
			// below L ever opened, so only the others are worth sorting.
			if b := rb.clusterBound(p, int32(c)); b >= floorL {
				scored = append(scored, clusterScore{int32(c), b})
			}
		}
	}
	rb.returnMem()
	slices.SortFunc(scored, func(a, b clusterScore) int {
		if a.bound != b.bound {
			if a.bound > b.bound {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.c, b.c)
	})
	limit := used + refineBudgetItems(ix.space.N())
	for _, cs := range scored {
		if used >= limit {
			break
		}
		open[cs.c] = true
		used += len(p.Members[cs.c])
		opened++
	}

	r, ok := ix.newRun(u, opts, &partCtx{p: p, floorL: floorL, mask: open})
	if !ok {
		return ix.topKRun(u, opts, nil)
	}
	merged := r.exec()
	merged.Packages = mergeScored(merged.Packages, skRes.Packages, opts.K)
	merged.Accessed += skRes.Accessed
	merged.Created += skRes.Created
	merged.Truncated = merged.Truncated || skRes.Truncated
	merged.DomPruned += skRes.DomPruned
	merged.SketchSkipped = ix.space.N() - used
	merged.RefineClustersOpened = opened
	ix.recordPartStats(merged)
	return merged, nil
}

func (ix *Index) recordPartStats(res Result) {
	st := ix.partStats
	if st == nil {
		return
	}
	st.Searches.Add(1)
	st.SketchSkipped.Add(int64(res.SketchSkipped))
	st.ClustersOpened.Add(int64(res.RefineClustersOpened))
}

// subsetIndex filters the index's sorted lists and orphans through a dense
// membership mask. Filtering preserves the (value, id) order, so the
// subset searches exactly as a freshly built index over the kept items
// would; the full space (and its dense ids) is shared, as is the seen-set
// pool of the root index. O(n·d): built once per partition, for the
// sketch's representatives (install) — never per search, where the masked
// walk of refineBeamed stands in for it, with the property suite holding
// the two to the same trace.
func (ix *Index) subsetIndex(keep []bool) *Index {
	src := ix
	if ix.seenSrc != nil {
		src = ix.seenSrc
	}
	sub := &Index{
		space:   ix.space,
		asc:     make([][]int32, len(ix.asc)),
		seenSrc: src,
	}
	for d, ids := range ix.asc {
		if ids == nil {
			continue
		}
		out := make([]int32, 0, len(ids)/8)
		for _, id := range ids {
			if keep[id] {
				out = append(out, id)
			}
		}
		sub.asc[d] = out
	}
	for _, o := range ix.orphans {
		if keep[o] {
			sub.orphans = append(sub.orphans, o)
		}
	}
	return sub
}

// clusterBound is headBound lifted from an item to cluster c of p: a
// virtual best member is assembled from the cluster's per-dimension bounds
// and bounded exactly like a singleton — max of its own score and its
// upper-exp pad bound against the frozen initial τ vector — which bounds
// the utility of every package containing any member of the cluster.
//
// Per weighted dimension the virtual member takes the oriented best raw
// value (Maxs for sum/max with w > 0, Mins for min with w < 0 — the
// monotone gate fixes these orientations), which by kernel monotonicity
// dominates every member's contribution on that dimension. When the
// cluster has a null there and the best value still scores negatively, a
// null member's zero contribution is the better case, so the virtual
// member skips the dimension instead — dominating both kinds of member on
// both the singleton and the padded-extension side (pads fold the global
// per-list best τ, which bounds any real co-member's value).
func (r *run) clusterBound(p *partition.Partition, c int32) float64 {
	sp := r.ix.space
	dims := sp.Dims()
	if r.partContribs == nil {
		r.partContribs = make([]feature.Contrib, dims)
	}
	contribs := r.partContribs
	for d := 0; d < dims; d++ {
		e := sp.Profile.Entry(d)
		w := r.u.W[d]
		if w == 0 || e.Agg == feature.AggNull {
			contribs[d] = feature.Contrib{Skip: true}
			continue
		}
		var v float64
		if e.Agg == feature.AggMin {
			v = p.Mins[c][d]
		} else {
			v = p.Maxs[c][d]
		}
		if math.IsInf(v, 0) || (p.AnyNull[c][d] && w*v < 0) {
			contribs[d] = feature.Contrib{Skip: true}
			continue
		}
		contribs[d] = feature.Contrib{Value: v}
	}
	st := r.scratch
	st.CopyFrom(r.emptyState)
	st.AddContrib(contribs)
	b := r.u.ScoreState(st)
	if ext := st.PadUpper(r.padPlan, r.initModes, r.initTaus, sp.MaxSize); ext > b {
		b = ext
	}
	return b
}

// mergeScored combines the refine and sketch result lists, dropping
// duplicate packages, into the final descending top-k.
func mergeScored(a, b []pkgspace.Scored, k int) []pkgspace.Scored {
	out := append([]pkgspace.Scored(nil), a...)
	for _, s := range b {
		dup := false
		for _, t := range a {
			if slices.Equal(t.Pkg.IDs, s.Pkg.IDs) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	pkgspace.SortScored(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
