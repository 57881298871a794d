// Sketch-refine partitioned search (Brucato et al., "Scalable Package
// Queries in Relational Database Systems", adapted to Top-k-Pkg): the
// catalogue is clustered into ~√n value-space groups (internal/partition);
// a search first sketches — runs the beamed kernel over the cluster
// representatives only, yielding real packages whose k-th utility L is a
// lower bound on the true k-th — and then refines inside the clusters that
// can matter: the ones the sketch candidates came from, plus the
// best-bounded others while they reach L, up to an item budget of
// 32·⌈√n⌉; clusters are bounded down the partition's split tree, and a
// subtree whose virtual best member bounds below L is skipped whole. The
// refine is the ordinary trace over the index's own sorted
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

// partState is the materialized partition of one index: the clustering,
// a persistent subset index over the cluster representatives the sketch
// phase searches, and the bound tree the refine walks to pick clusters.
type partState struct {
	p      *partition.Partition
	sketch *Index
	tree   []boundNode
}

// boundNode covers the clusters [lo, hi). The tree mirrors partition.Build's
// split recursion — node (lo, k) has children (lo, k/2) and (lo+k/2, k−k/2)
// — in pre-order: a first child is the next node, and end indexes past the
// subtree. member is nil when every cluster below is empty.
type boundNode struct {
	lo, hi, end int32
	member      *feature.State
}

// boundTree builds p's bound tree over sp, once per partition (install).
func boundTree(sp *feature.Space, p *partition.Partition) []boundNode {
	tree := make([]boundNode, 0, 2*p.K-1)
	var build func(lo, k int32)
	build = func(lo, k int32) {
		i := len(tree)
		tree = append(tree, boundNode{lo: lo, hi: lo + k, member: virtualMember(sp, p, lo, lo+k)})
		if k > 1 {
			build(lo, k/2)
			build(lo+k/2, k-k/2)
		}
		tree[i].end = int32(len(tree))
	}
	build(0, int32(p.K))
	return tree
}

// virtualMember is one imaginary item at least as good as every item of the
// non-empty clusters [lo, hi) under any weights the monotone gate admits (nil
// if all are empty). Per dimension it takes the oriented best raw value —
// largest Maxs for sum/max, smallest Mins for min — unless every item is null
// there (±Inf), or one is and the value lies on the losing side of zero
// (exactly w·v < 0 under the gate), where a null's zero contribution is
// better and the member skips. Zero-weight dimensions are read by neither
// ScoreState nor a pad plan, so it need not depend on w.
func virtualMember(sp *feature.Space, p *partition.Partition, lo, hi int32) *feature.State {
	contribs := make([]feature.Contrib, sp.Dims())
	empty := true
	for d := range contribs {
		isMin := sp.Profile.Entry(d).Agg == feature.AggMin
		v, null := math.Inf(-1), false
		if isMin {
			v = math.Inf(1)
		}
		for c := lo; c < hi; c++ {
			if len(p.Members[c]) == 0 {
				continue
			}
			empty = false
			null = null || p.AnyNull[c][d]
			if isMin {
				v = min(v, p.Mins[c][d])
			} else {
				v = max(v, p.Maxs[c][d])
			}
		}
		losing := v < 0
		if isMin {
			losing = v > 0
		}
		contribs[d] = feature.Contrib{Skip: math.IsInf(v, 0) || (null && losing), Value: v}
	}
	if empty {
		return nil
	}
	st := feature.NewState(sp)
	st.AddContrib(contribs)
	return st
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
	ix.part.CompareAndSwap(nil, &partState{p: p, sketch: ix.subsetIndex(keep), tree: boundTree(ix.space, p)})
}

// partitionFor decides whether a run engages sketch-refine, materializing
// the partition if the index is eligible. A run partitions only when it is
// beamed or budgeted, its utility is monotone (the gate the cluster bounds'
// orientation needs, as the dominance filter's does), weighted (the
// degenerate path enumerates the whole space) and predicate-free, and its
// index holds PartitionMinItems items or a partition already.
func (ix *Index) partitionFor(u *feature.Utility, opts Options) *partState {
	if opts.DisablePartition || opts.Candidate != nil ||
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
	sk.exec()
	res, refined := ix.refineBeamed(u, opts, ps, sk)
	sk.returnMem()
	if !refined {
		return ix.topKRun(u, opts, nil)
	}
	return res, nil
}

// refineBeamed walks the index's own sorted lists through a mask of the
// clusters that can matter (openClusters) and merges the sketch candidates
// into the final top-k. Nothing is copied or filtered per search: the cost
// follows the clusters opened, not n. The masked walk is the trace a fresh
// index over the open clusters' items would run, bit for bit, on three
// invariants (run.seek, exec): a list's initial τ — and with it the frozen
// τ vector headBound pads with — is its first open entry's value, not the
// list top; a cursor is exhausted when its last open entry is drawn, not at
// the physical end (a list with no open entry is absent); and the orphan
// drain passes through the mask too. Should no open item sit on an active
// list, the refine falls back to the unpartitioned search, as the sketch
// does: ok is false, and the caller searches once it has handed sk back.
func (ix *Index) refineBeamed(u *feature.Utility, opts Options, ps *partState, sk *run) (res Result, ok bool) {
	sketch := sk.cands.rank()
	floorL := negInf
	if len(sketch) >= opts.K {
		floorL = sketch[opts.K-1].Utility
	}
	// rb only bounds the clusters: its frozen τ vector holds the full
	// lists' tops, which a bound over members of any cluster needs. Its
	// memory holds the mask and the context the refine reads it through,
	// so it goes back after the refine's.
	rb, ok := ix.newRun(u, opts, nil)
	if !ok {
		return Result{}, false
	}
	open, used, opened := ix.openClusters(rb, ps, sketch, floorL)
	rb.part = partCtx{p: ps.p, floorL: floorL, mask: open}
	r, ok := ix.newRun(u, opts, &rb.part)
	if ok {
		r.exec()
		res = r.result(sk)
		r.returnMem()
		res.SketchSkipped = ix.space.N() - used
		res.RefineClustersOpened = opened
		ix.recordPartStats(res)
	}
	rb.returnMem()
	return res, ok
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

// clusterScore is a cluster the sketch did not open whose bound reaches L.
type clusterScore struct {
	c     int32
	bound float64
}

// openClusters returns the refine's cluster mask and the items and clusters
// under it: the sketch candidates' clusters, then the others whose bound
// reaches L, best first (ties to the smaller id), while the budget lasts.
// The mask is rb's memory.
func (ix *Index) openClusters(rb *run, ps *partState, sketch []pkgspace.Scored, floorL float64) (open []bool, used, opened int) {
	p := ps.p
	rb.open = resize(rb.open, p.K)
	open = rb.open
	clear(open)
	for _, s := range sketch {
		for _, id := range s.Pkg.IDs {
			if c := p.Assign[id]; !open[c] {
				open[c] = true
				used += len(p.Members[c])
				opened++
			}
		}
	}
	scored := ps.scoreClusters(rb, open, floorL)
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
	return open, used, opened
}

// scoreClusters returns, by ascending id, every non-empty cluster not yet
// open whose bound reaches floorL. It walks the bound tree and skips a
// subtree whose node bounds below floorL or has no non-empty cluster (an
// emptied one holds nothing to read). That is exact: a node's member
// dominates, dimension by dimension, that of every non-empty cluster below
// it, so by kernel monotonicity it bounds at least as high, and the result
// is a flat scan's for any tree of contiguous id ranges. The list is rb's
// memory.
func (ps *partState) scoreClusters(rb *run, open []bool, floorL float64) []clusterScore {
	scored := rb.scored[:0]
	for i := 0; i < len(ps.tree); {
		nd := &ps.tree[i]
		leaf := nd.hi-nd.lo == 1
		if nd.member == nil || (!leaf && floorL > negInf && rb.memberBound(nd.member) < floorL) {
			i = int(nd.end)
			continue
		}
		if leaf && !open[nd.lo] {
			if b := rb.memberBound(nd.member); b >= floorL {
				scored = append(scored, clusterScore{nd.lo, b})
			}
		}
		i++
	}
	rb.scored = scored
	return scored
}

// memberBound is headBound lifted to a virtual member: its own score or its
// pad bound against the frozen initial τ vector (the lists' tops, which
// bound any co-member), bounding every package holding an item st
// dominates.
func (r *run) memberBound(st *feature.State) float64 {
	b := r.u.ScoreState(st)
	if ext := st.PadUpper(r.padPlan, r.initModes, r.initTaus, r.ix.space.MaxSize); ext > b {
		b = ext
	}
	return b
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

// mergeScored combines the refine and sketch result lists, dropping
// duplicate packages, into the final descending top-k, appended to dst.
func mergeScored(dst, a, b []pkgspace.Scored, k int) []pkgspace.Scored {
	out := append(dst, a...)
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
