// Package partition clusters a catalogue's feature space for sketch-refine
// search (Brucato et al., "Scalable Package Queries in Relational Database
// Systems"): items are grouped into ~√n value-space clusters, each with a
// representative item and per-dimension raw value bounds. The search layer
// sketches over the representatives to get a lower bound on the k-th
// package utility, then refines over only the clusters that can matter;
// the bounds here are what make closing a cluster provable.
//
// Clustering runs over oriented, normalized per-dimension columns (the
// same preference directions the skyline layer canonicalizes, so "larger
// coordinate" always means "more desirable") using recursive widest-axis
// median splits — O(n log k), deterministic, and balanced by construction.
// Everything derived (members, bounds, representatives) is a pure function
// of the assignment and the space, which is the invariant the delta fuzz
// suite holds incremental maintenance to.
package partition

import (
	"math"
	"slices"

	"toppkg/internal/feature"
	"toppkg/internal/skyline"
)

// Partition is an immutable clustering of one feature space's items.
// Cluster indices are stable across incremental Apply calls (membership
// moves between existing clusters); only a full re-cluster renumbers them.
type Partition struct {
	// K is the cluster count (fixed at build time, ~√n by default).
	K int
	// Assign maps each dense item id to its cluster.
	Assign []int32
	// Members lists each cluster's item ids ascending.
	Members [][]int32
	// Reps holds each cluster's representative item (-1 when empty): the
	// member with the largest oriented raw-value sum, ties to the smaller
	// id. Deliberately scale-free, so a normalizer drift in an untouched
	// cluster cannot silently invalidate its representative.
	Reps []int32
	// Mins and Maxs bound each cluster's non-null raw values per profile
	// dimension ([cluster][dim]; ±Inf when every member is null there).
	// Raw, not normalized: normalizer scales move across delta epochs,
	// bounds must not.
	Mins, Maxs [][]float64
	// AnyNull reports whether some member is null on the dimension's
	// feature ([cluster][dim]) — whether a "no contribution" pad is
	// attainable inside the cluster.
	AnyNull [][]bool
	// Gen counts full clustering passes: Apply preserves it, Build starts
	// at 1 (or parent+1 on re-cluster). Two partitions with equal Gen and
	// provenance have comparable cluster indices.
	Gen uint64
}

// axisInfo is one active clustering axis: a profile dimension with a
// canonical preference direction.
type axisInfo struct {
	dim     int
	feat    int
	smaller bool
}

// activeAxes returns the clustering axes: every profile dimension with a
// canonical direction (sum/max larger-is-better, min smaller-is-better;
// avg and null dimensions carry no direction and are ignored).
func activeAxes(p *feature.Profile) []axisInfo {
	dirs := skyline.ProfileDirs(p)
	var axes []axisInfo
	for d, dir := range dirs {
		switch dir {
		case skyline.Larger:
			axes = append(axes, axisInfo{dim: d, feat: p.Entry(d).Feature})
		case skyline.Smaller:
			axes = append(axes, axisInfo{dim: d, feat: p.Entry(d).Feature, smaller: true})
		}
	}
	return axes
}

// coord returns the item's oriented normalized coordinate on one axis:
// sign-flipped so larger is always more desirable, scaled so axes are
// comparable, nulls at the neutral 0 (no contribution).
func coord(sp *feature.Space, ax axisInfo, id int32) float64 {
	v := sp.Col(ax.feat)[id]
	if feature.IsNull(v) {
		return 0
	}
	scale := sp.Scale(ax.dim)
	if ax.smaller {
		return -v / scale
	}
	return v / scale
}

// DefaultClusters returns the default cluster count for n items: ⌈√n⌉.
func DefaultClusters(n int) int {
	if n <= 0 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

// Build clusters the space into k groups (k <= 0 selects DefaultClusters)
// by recursive widest-axis median splits over the oriented coordinates.
// Deterministic: splits order by (coordinate, id), so equal inputs build
// equal partitions.
func Build(sp *feature.Space, k int) *Partition {
	n := sp.N()
	if k <= 0 {
		k = DefaultClusters(n)
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	axes := activeAxes(sp.Profile)
	p := &Partition{
		K:      k,
		Assign: make([]int32, n),
		Gen:    1,
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	// Precompute the coordinate matrix once; splits only permute ids.
	coords := make([][]float64, len(axes))
	for a, ax := range axes {
		col := make([]float64, n)
		for i := int32(0); i < int32(n); i++ {
			col[i] = coord(sp, ax, i)
		}
		coords[a] = col
	}
	next := int32(0)
	var split func(ids []int32, k int)
	split = func(ids []int32, k int) {
		if k <= 1 || len(ids) <= 1 || len(axes) == 0 {
			c := next
			next++
			for _, id := range ids {
				p.Assign[id] = c
			}
			return
		}
		// Widest oriented spread picks the split axis (ties to the lower
		// axis index).
		best, bestSpread := 0, math.Inf(-1)
		for a := range axes {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, id := range ids {
				v := coords[a][id]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if s := hi - lo; s > bestSpread {
				best, bestSpread = a, s
			}
		}
		kl := k / 2
		cut := len(ids) * kl / k
		selectByCoord(ids, coords[best], cut)
		split(ids[:cut], kl)
		split(ids[cut:], k-kl)
	}
	split(ids, k)
	p.K = int(next) // degenerate inputs may produce fewer leaves
	p.derive(sp, nil)
	return p
}

// selectByCoord partially sorts ids so positions [0,cut) hold the cut
// smallest elements under (coordinate, id) order — a quickselect with a
// totally ordered key, so the resulting two sides are unique regardless of
// pivot internals.
func selectByCoord(ids []int32, col []float64, cut int) {
	if cut <= 0 || cut >= len(ids) {
		return
	}
	lo, hi := 0, len(ids)-1
	less := func(a, b int32) bool {
		va, vb := col[a], col[b]
		if va != vb {
			return va < vb
		}
		return a < b
	}
	for hi > lo {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && less(ids[j], ids[j-1]); j-- {
					ids[j], ids[j-1] = ids[j-1], ids[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		if less(ids[mid], ids[lo]) {
			ids[mid], ids[lo] = ids[lo], ids[mid]
		}
		if less(ids[hi], ids[lo]) {
			ids[hi], ids[lo] = ids[lo], ids[hi]
		}
		if less(ids[hi], ids[mid]) {
			ids[hi], ids[mid] = ids[mid], ids[hi]
		}
		ids[lo], ids[mid] = ids[mid], ids[lo]
		pivot := ids[lo]
		i, j := lo, hi+1
		for {
			for i++; i <= hi && less(ids[i], pivot); i++ {
			}
			for j--; less(pivot, ids[j]); j-- {
			}
			if i >= j {
				break
			}
			ids[i], ids[j] = ids[j], ids[i]
		}
		ids[lo], ids[j] = ids[j], ids[lo]
		switch {
		case j == cut:
			return
		case j < cut:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
}

// derive (re)computes Members and, for the clusters listed in only (nil =
// all), the bounds and representative from Assign — the canonical
// derivation incremental maintenance must reproduce exactly.
func (p *Partition) derive(sp *feature.Space, only []int32) {
	n := len(p.Assign)
	counts := make([]int32, p.K)
	for _, c := range p.Assign {
		counts[c]++
	}
	flat := make([]int32, n)
	offs := make([]int32, p.K)
	for c := 1; c < p.K; c++ {
		offs[c] = offs[c-1] + counts[c-1]
	}
	members := make([][]int32, p.K)
	for c := 0; c < p.K; c++ {
		members[c] = flat[offs[c] : offs[c] : offs[c]+counts[c]]
	}
	for i := int32(0); i < int32(n); i++ { // ascending ids per cluster
		c := p.Assign[i]
		members[c] = append(members[c], i)
	}
	p.Members = members

	dims := sp.Dims()
	if p.Mins == nil {
		p.Mins = make([][]float64, p.K)
		p.Maxs = make([][]float64, p.K)
		p.AnyNull = make([][]bool, p.K)
		p.Reps = make([]int32, p.K)
	}
	rescan := only
	if rescan == nil {
		rescan = make([]int32, p.K)
		for c := range rescan {
			rescan[c] = int32(c)
		}
	}
	for _, c := range rescan {
		mins := make([]float64, dims)
		maxs := make([]float64, dims)
		anyNull := make([]bool, dims)
		ms := members[c]
		for d := 0; d < dims; d++ {
			e := sp.Profile.Entry(d)
			if e.Agg == feature.AggNull {
				mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
				continue
			}
			lo, hi, nonNull := sp.ColStats(e.Feature, ms)
			mins[d], maxs[d] = lo, hi
			anyNull[d] = nonNull < len(ms)
		}
		p.Mins[c], p.Maxs[c], p.AnyNull[c] = mins, maxs, anyNull
		p.Reps[c] = representative(sp, ms)
	}
}

// representative picks the member with the largest oriented raw-value sum
// (nulls contribute 0), ties to the smaller id; -1 for an empty cluster.
// Scale-free by construction — see Partition.Reps.
func representative(sp *feature.Space, members []int32) int32 {
	if len(members) == 0 {
		return -1
	}
	axes := activeAxes(sp.Profile)
	best, bestKey := members[0], math.Inf(-1)
	for _, id := range members {
		key := 0.0
		for _, ax := range axes {
			v := sp.Col(ax.feat)[id]
			if feature.IsNull(v) {
				continue
			}
			if ax.smaller {
				key -= v
			} else {
				key += v
			}
		}
		if key > bestKey {
			best, bestKey = id, key
		}
	}
	return best
}

// Imbalance is the load factor of the fullest cluster: its size divided by
// the balanced size n/K (1 = perfectly balanced). The catalogue triggers a
// re-cluster when incremental drift pushes this past its threshold.
func (p *Partition) Imbalance() float64 {
	n := len(p.Assign)
	if n == 0 || p.K == 0 {
		return 1
	}
	maxSize := 0
	for _, ms := range p.Members {
		if len(ms) > maxSize {
			maxSize = len(ms)
		}
	}
	return float64(maxSize) * float64(p.K) / float64(n)
}

// Apply derives the child space's partition from this (parent) one after a
// delta build, renumbering carried assignments through remap, assigning
// each added item to the cluster with the nearest representative, and
// rescanning only the touched clusters' bounds and representatives.
// Argument conventions match skyline.Set.Apply: remap maps parent dense
// ids to child dense ids (negative = removed; nil = identity), dirty lists
// the parent ids removed or replaced, added lists the child ids of new or
// replaced rows. ok is false when no valid representative survives to
// anchor assignment (caller re-clusters from scratch).
func (p *Partition) Apply(child *feature.Space, remap []int32, dirty, added []int32) (np *Partition, ok bool) {
	n := child.N()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	touched := make(map[int32]bool)
	for old, c := range p.Assign {
		if _, isDirty := slices.BinarySearch(dirty, int32(old)); isDirty {
			touched[c] = true
			continue
		}
		nd := int32(old)
		if remap != nil {
			nd = remap[old]
		}
		if nd < 0 {
			touched[c] = true // removal the dirty list missed
			continue
		}
		assign[nd] = c
	}
	// Representatives anchor the nearest-cluster assignment; translate
	// them into the child id space, dropping any that vanished.
	axes := activeAxes(child.Profile)
	type anchor struct {
		c      int32
		coords []float64
	}
	var anchors []anchor
	for c, rep := range p.Reps {
		if rep < 0 {
			continue
		}
		nd := rep
		if remap != nil {
			nd = remap[rep]
		}
		if _, isDirty := slices.BinarySearch(dirty, rep); isDirty || nd < 0 {
			continue
		}
		cs := make([]float64, len(axes))
		for a, ax := range axes {
			cs[a] = coord(child, ax, nd)
		}
		anchors = append(anchors, anchor{c: int32(c), coords: cs})
	}
	if len(anchors) == 0 && len(added) > 0 {
		return nil, false
	}
	buf := make([]float64, len(axes))
	for _, id := range added {
		for a, ax := range axes {
			buf[a] = coord(child, ax, id)
		}
		best, bestDist := int32(0), math.Inf(1)
		for _, an := range anchors {
			d := 0.0
			for a := range buf {
				diff := buf[a] - an.coords[a]
				d += diff * diff
			}
			if d < bestDist || (d == bestDist && an.c < best) {
				best, bestDist = an.c, d
			}
		}
		assign[id] = best
		touched[best] = true
	}
	for _, a := range assign {
		if a < 0 {
			return nil, false // unreachable with a well-formed change set
		}
	}
	np = &Partition{
		K:       p.K,
		Assign:  assign,
		Reps:    slices.Clone(p.Reps),
		Mins:    slices.Clone(p.Mins),
		Maxs:    slices.Clone(p.Maxs),
		AnyNull: slices.Clone(p.AnyNull),
		Gen:     p.Gen,
	}
	if remap != nil {
		// Untouched clusters keep their representative, under its new
		// number. (A dirty representative implies a touched cluster, whose
		// rep derive recomputes below, so remap here is never negative for
		// a cluster that stays untouched.)
		for c, rep := range np.Reps {
			if rep >= 0 && !touched[int32(c)] {
				np.Reps[c] = remap[rep]
			}
		}
	}
	touchedList := make([]int32, 0, len(touched))
	for c := range touched {
		touchedList = append(touchedList, c)
	}
	np.derive(child, touchedList)
	return np, true
}
