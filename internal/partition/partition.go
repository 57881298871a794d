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
// Cluster ids are the split recursion's leaves in depth-first order, so each
// split's side is a contiguous id range; the search layer bounds clusters
// down that tree and relies on the alignment for pruning, not for
// correctness. Everything derived (members, bounds, representatives) is a
// pure function of the assignment and the space, which is the invariant the
// delta fuzz suite holds incremental maintenance to.
package partition

import (
	"math"
	"math/bits"
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
// equal partitions. Above feature.BuildGrain items the two sides of a split
// build concurrently, on at most feature.Workers goroutines in all, to the
// partition one goroutine builds.
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
	if len(axes) == 0 {
		k = 1 // no axis to split on
	}
	p := &Partition{
		K:      k,
		Assign: make([]int32, n),
		Gen:    1,
	}
	// The items in node order: position i holds item ids[i] and its
	// coordinates on every axis at rows[i*d : i*d+d]. A split permutes both
	// together, so each node is one contiguous block of both arrays, and its
	// widest-axis scan and median selection read no item out of place.
	d := len(axes)
	nr := (&nodeRows{ids: make([]int32, n), rows: make([]float64, n*d), d: d}).fork(n)
	for i := range nr.ids {
		nr.ids[i] = int32(i)
	}
	for a, ax := range axes {
		for i := int32(0); i < int32(n); i++ {
			nr.rows[int(i)*d+a] = coord(sp, ax, i)
		}
	}
	var split func(nr *nodeRows, lo, hi, k int, first int32, workers int)
	split = func(nr *nodeRows, lo, hi, k int, first int32, workers int) {
		if k <= 1 || hi-lo <= 1 {
			for _, id := range nr.ids[lo:hi] {
				p.Assign[id] = first
			}
			return
		}
		// Widest oriented spread picks the split axis (ties to the lower
		// axis index).
		best, bestSpread := 0, math.Inf(-1)
		block := nr.rows[lo*d : hi*d]
		for a := 0; a < d; a++ {
			low, high := math.Inf(1), math.Inf(-1)
			for r := a; r < len(block); r += d {
				v := block[r]
				if v < low {
					low = v
				}
				if v > high {
					high = v
				}
			}
			if s := high - low; s > bestSpread {
				best, bestSpread = a, s
			}
		}
		kl := k / 2
		cut := (hi - lo) * kl / k
		nr.selectCut(lo, hi, best, lo+cut)
		right := first + leaves(cut, kl)
		if workers < 2 || hi-lo < feature.BuildGrain {
			split(nr, lo, lo+cut, kl, first, 1)
			split(nr, lo+cut, hi, k-kl, right, 1)
			return
		}
		// The two sides share the table's disjoint stretches; the right one
		// gets its own selection scratch.
		wl := workers / 2
		feature.Parallel(2, func(side int) {
			if side == 0 {
				split(nr, lo, lo+cut, kl, first, wl)
			} else {
				split(nr.fork(hi-lo-cut), lo+cut, hi, k-kl, right, workers-wl)
			}
		})
	}
	split(nr, 0, n, k, 0, feature.Workers(n))
	p.K = int(leaves(n, k)) // degenerate inputs may produce fewer leaves
	p.derive(sp, nil)
	return p
}

// leaves counts the leaves Build's split of n items into k clusters makes,
// splits of a single item or a single cluster being leaves.
func leaves(n, k int) int32 {
	if k <= 1 || n <= 1 {
		return 1
	}
	kl := k / 2
	cut := n * kl / k
	return leaves(cut, kl) + leaves(n-cut, k-kl)
}

// nodeRows is Build's node-ordered item table: ids with their coordinate
// rows, d coordinates each, permuted together, and the selection's scratch.
type nodeRows struct {
	ids    []int32
	rows   []float64
	d      int
	keys   []uint64 // a node's order keys on its split axis, by position
	cand   []uint64 // the keys still in the running for the cut's
	tied   []int32  // a node's ids whose key is the cut's
	counts [1 << selectDigit]int32
}

// fork returns a table over the same ids and rows with its own selection
// scratch, for nodes of up to n items.
func (nr *nodeRows) fork(n int) *nodeRows {
	return &nodeRows{ids: nr.ids, rows: nr.rows, d: nr.d, keys: make([]uint64, n), cand: make([]uint64, 0, n)}
}

// selectDigit is the widest digit of selectCut's narrowing rounds, and
// selectSort the candidate count at which it sorts what is left instead.
const (
	selectDigit = 11
	selectSort  = 64
)

// selectCut moves the cut−lo smallest of positions [lo,hi) under
// (coordinate on axis, id) to [lo,cut). The order is total, so the two sides
// are unique whatever the method. A radix select over the coordinates' order
// keys (feature.OrderKey, the radix kernel's) narrows, one digit at a time
// from the highest bit any two keys differ in, to the cut's key and how many
// positions holding it go left, those with the smallest ids; one
// two-pointer pass then moves every position that goes left to the front.
func (nr *nodeRows) selectCut(lo, hi, axis, cut int) {
	if cut <= lo || cut >= hi {
		return
	}
	keys := nr.keys[:hi-lo]
	var diff uint64
	for i := range keys {
		keys[i] = feature.OrderKey(nr.rows[(lo+i)*nr.d+axis])
		diff |= keys[i] ^ keys[0]
	}
	need := cut - lo // left positions not yet placed below pivot
	shift := bits.Len64(diff)
	// The cut's key shares the bits above shift with every key. (At shift 64
	// none is known: a uint64 shifted by 64 is 0, so the mask clears all.)
	pivot := keys[0] &^ (1<<shift - 1)
	cand := keys
	for shift > 0 && len(cand) > selectSort {
		// About one bucket per candidate, up to selectDigit bits.
		w := min(selectDigit, shift, bits.Len(uint(len(cand))))
		shift -= w
		mask := uint64(1)<<w - 1
		counts := nr.counts[:1<<w]
		clear(counts)
		for _, k := range cand {
			counts[k>>shift&mask]++
		}
		b := 0
		for need > int(counts[b]) {
			need -= int(counts[b])
			b++
		}
		kept := nr.cand[:0]
		for _, k := range cand {
			if k>>shift&mask == uint64(b) {
				kept = append(kept, k)
			}
		}
		cand = kept
		pivot |= uint64(b) << shift
	}
	if shift > 0 { // few candidates left: sort them and read the cut's key
		cand = append(nr.cand[:0], cand...)
		slices.Sort(cand)
		pivot = cand[need-1]
		first, _ := slices.BinarySearch(cand, pivot)
		last, _ := slices.BinarySearch(cand, pivot+1)
		cand, need = cand[first:last], need-first
	}
	// Every candidate now holds pivot; need of them go left, smallest id first.
	idMax := int32(math.MaxInt32)
	if need < len(cand) {
		tied := nr.tied[:0]
		for i, k := range keys {
			if k == pivot {
				tied = append(tied, nr.ids[lo+i])
			}
		}
		slices.Sort(tied)
		idMax, nr.tied = tied[need-1], tied
	}
	// Every position goes left or right by its key and id. keys stays
	// aligned with the positions the scans have yet to read: a swap moves
	// two positions both scans are done with.
	left := func(i int) bool {
		k := keys[i-lo]
		return k < pivot || k == pivot && nr.ids[i] <= idMax
	}
	i, j := lo, hi-1
	for {
		for i <= j && left(i) {
			i++
		}
		for i <= j && !left(j) {
			j--
		}
		if i > j {
			return
		}
		nr.swap(i, j)
		i, j = i+1, j-1
	}
}

// swap exchanges positions i and j, id and row.
func (nr *nodeRows) swap(i, j int) {
	nr.ids[i], nr.ids[j] = nr.ids[j], nr.ids[i]
	ri, rj := nr.rows[i*nr.d:i*nr.d+nr.d], nr.rows[j*nr.d:j*nr.d+nr.d]
	for a := range ri {
		ri[a], rj[a] = rj[a], ri[a]
	}
}

// derive (re)computes Members and, for the clusters listed in only (nil =
// all), the bounds and representative from Assign — the canonical
// derivation incremental maintenance must reproduce exactly. Above
// feature.BuildGrain rescanned members the clusters rescan on
// feature.Workers goroutines, each taking a run of them.
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
	// The rescanned clusters' bounds get one fresh backing per call: a
	// partition Apply cloned from this one may alias the old ones.
	mins := make([]float64, len(rescan)*dims)
	maxs := make([]float64, len(rescan)*dims)
	anyNull := make([]bool, len(rescan)*dims)
	for r, c := range rescan {
		lo, hi := r*dims, (r+1)*dims
		p.Mins[c], p.Maxs[c], p.AnyNull[c] = mins[lo:hi:hi], maxs[lo:hi:hi], anyNull[lo:hi:hi]
	}
	scanned := 0
	for _, c := range rescan {
		scanned += len(members[c])
	}
	axes := activeAxes(sp.Profile)
	workers := feature.Workers(scanned)
	feature.Parallel(workers, func(w int) {
		for _, c := range rescan[len(rescan)*w/workers : len(rescan)*(w+1)/workers] {
			ms := members[c]
			for d := 0; d < dims; d++ {
				e := sp.Profile.Entry(d)
				if e.Agg == feature.AggNull {
					p.Mins[c][d], p.Maxs[c][d] = math.Inf(1), math.Inf(-1)
					continue
				}
				lo, hi, nonNull := sp.ColStats(e.Feature, ms)
				p.Mins[c][d], p.Maxs[c][d] = lo, hi
				p.AnyNull[c][d] = nonNull < len(ms)
			}
			p.Reps[c] = representative(sp, axes, ms)
		}
	})
}

// representative picks the member with the largest oriented raw-value sum
// (nulls contribute 0), ties to the smaller id; -1 for an empty cluster.
// Scale-free by construction — see Partition.Reps.
func representative(sp *feature.Space, axes []axisInfo, members []int32) int32 {
	if len(members) == 0 {
		return -1
	}
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
