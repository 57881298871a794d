// Package skyline computes a space's head set: the items no other item
// dominates on every dimension a monotone utility reads (the skyline, or
// Pareto-optimal set, under the profile's canonical directions). The
// search layer uses it as a frontier filter for dominance pruning, and the
// catalogue maintains it across delta epoch builds.
package skyline

import (
	"math"
	"slices"

	"toppkg/internal/feature"
)

// Direction states whether larger (+1) or smaller (-1) values are preferred
// on a dimension; 0 ignores the dimension.
type Direction int8

// Preference directions.
const (
	Ignore  Direction = 0
	Larger  Direction = 1
	Smaller Direction = -1
)

// nullWorst is the finite stand-in for "worst possible value" when a null
// must be ordered on a Smaller dimension (raw values are non-negative and
// far below it in every dataset the system handles).
const nullWorst = 1e18

// ProfileDirs returns the canonical per-dimension preference directions a
// monotone utility over the profile implies: Larger for sum and max
// dimensions (bigger item values can only raise the aggregate), Smaller
// for min (smaller values can only lower it), Ignore for avg and null
// dimensions (avg is not monotone in the item set, null contributes
// nothing). These are the directions the search layer's dominance pruning
// assumes, so Heads/Apply always compute under them.
func ProfileDirs(p *feature.Profile) []Direction {
	dirs := make([]Direction, p.Dims())
	for d := range dirs {
		switch p.Entry(d).Agg {
		case feature.AggSum, feature.AggMax:
			dirs[d] = Larger
		case feature.AggMin:
			dirs[d] = Smaller
		}
	}
	return dirs
}

// axis is one active (non-Ignore) dimension of a head set: which raw
// feature column it reads and whether smaller values are preferred.
type axis struct {
	feat    int
	smaller bool
}

// oriented maps a raw value on the axis to its oriented value: sign-flipped
// so that larger is always better, nulls mapped to the worst oriented value.
// With this encoding dominance is the plain "all ≥, one >" test regardless
// of direction.
func (ax axis) oriented(v float64) float64 {
	switch {
	case feature.IsNull(v):
		if ax.smaller {
			return -nullWorst
		}
		return 0
	case ax.smaller:
		return -v
	}
	return v
}

// orientedRow fills buf with the item's oriented values on the active axes.
func orientedRow(sp *feature.Space, axes []axis, id int32, buf []float64) []float64 {
	buf = buf[:len(axes)]
	for a, ax := range axes {
		buf[a] = ax.oriented(sp.Col(ax.feat)[id])
	}
	return buf
}

// domOriented reports dominance between two oriented rows.
func domOriented(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// Set is a space's non-dominated ("head") item set under the canonical
// profile directions (ProfileDirs): the dense item IDs no other item beats
// on every active dimension. The search layer uses it as a cheap frontier
// filter when deciding which candidate heads merit an exact prune-bound
// test; the catalog layer maintains it incrementally across delta epoch
// builds. A Set is immutable once built.
type Set struct {
	axes    []axis
	members []int32 // ascending dense item IDs
	bits    []uint64
}

// Len returns the number of head items.
func (s *Set) Len() int { return len(s.members) }

// Members returns the head item IDs in ascending order (do not mutate).
func (s *Set) Members() []int32 { return s.members }

// Contains reports whether dense item id is a head.
func (s *Set) Contains(id int32) bool {
	return s.bits[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// profileAxes extracts the active axes of a profile: its non-Ignore
// ProfileDirs, in dimension order.
func profileAxes(p *feature.Profile) []axis {
	var axes []axis
	for d, dir := range ProfileDirs(p) {
		if dir != Ignore {
			axes = append(axes, axis{feat: p.Entry(d).Feature, smaller: dir == Smaller})
		}
	}
	return axes
}

// newSet builds a Set from an unsorted member list.
func newSet(axes []axis, members []int32, n int) *Set {
	slices.Sort(members)
	bits := make([]uint64, (n+63)/64)
	for _, id := range members {
		bits[uint32(id)>>6] |= 1 << (uint32(id) & 63)
	}
	return &Set{axes: axes, members: members, bits: bits}
}

// Heads computes the head set of a space from scratch with the sort-first
// window scan over the space's columns: a linear radix presort by oriented
// row sum (feature.Order) plus O(n·s·d) window comparisons where s is the
// running skyline size.
//
// A pivot filters the scan: the item whose smallest per-axis normalised
// oriented value is largest. Each item carries a mask of the axes on which
// it is at least the pivot's value. An item with an empty mask is strictly
// below the pivot everywhere, so dominated: it is dropped before the
// presort. And s can dominate t only when mask(t) ⊆ mask(s): on an axis
// where t is at least the pivot and s is below it, s is below t. So the
// mask skips only pairs where dominance is impossible.
func Heads(sp *feature.Space) *Set {
	axes := profileAxes(sp.Profile)
	n := sp.N()
	if len(axes) == 0 {
		// No active dimension: nothing dominates anything, every item is
		// a head. (Such profiles are never monotone, so search won't
		// consult the set; completeness keeps the invariants simple.)
		members := make([]int32, n)
		for i := range members {
			members[i] = int32(i)
		}
		return newSet(axes, members, n)
	}
	d := len(axes)
	kept, masks := pivotFilter(sp, axes)
	// The kept items' rows and keys, by position in kept.
	rows := make([]float64, len(kept)*d)
	keys := make([]float64, len(kept))
	for p, id := range kept {
		for _, v := range orientedRow(sp, axes, id, rows[p*d:p*d+d]) {
			keys[p] += v
		}
	}
	order := make([]int32, len(kept))
	for p := range order {
		order[p] = int32(p)
	}
	feature.Order(order, keys, true, nil) // key descending, ties by ascending id
	win := window{d: d}
	for _, p := range order {
		win.offer(kept[p], masks[p], keys[p], rows[int(p)*d:int(p)*d+d])
	}
	return newSet(axes, win.ids, n)
}

// pivotFilter picks the pivot (see Heads) and returns, ascending, the items
// not strictly below it on every axis, with their masks: bit a%64 set when
// the item's value on axis a is at least the pivot's. Above
// feature.BuildGrain items each pass splits the items into contiguous runs,
// one per feature.Workers goroutine.
func pivotFilter(sp *feature.Space, axes []axis) (kept []int32, masks []uint64) {
	n, d := sp.N(), len(axes)
	cols := make([][]float64, d)
	for a, ax := range axes {
		cols[a] = sp.Col(ax.feat)[:n]
	}
	workers := feature.Workers(n)
	run := func(w int) (lo, hi int) { return n * w / workers, n * (w + 1) / workers }
	// Each axis's span scales it to [0, 1]; an axis every item shares says
	// nothing about the pivot.
	lows, highs := make([]float64, workers*d), make([]float64, workers*d)
	feature.Parallel(workers, func(w int) {
		from, to := run(w)
		for a, ax := range axes {
			low, high := math.Inf(1), math.Inf(-1)
			for _, v := range cols[a][from:to] {
				o := ax.oriented(v)
				low, high = min(low, o), max(high, o)
			}
			lows[w*d+a], highs[w*d+a] = low, high
		}
	})
	var spread []int
	lo, scale := make([]float64, d), make([]float64, d)
	for a := range axes {
		low, high := math.Inf(1), math.Inf(-1)
		for w := 0; w < workers; w++ {
			low, high = min(low, lows[w*d+a]), max(high, highs[w*d+a])
		}
		if high > low {
			spread = append(spread, a)
			lo[a], scale[a] = low, 1/(high-low)
		}
	}
	pivots, bests := make([]int, workers), make([]float64, workers)
	feature.Parallel(workers, func(w int) {
		from, to := run(w)
		pivot, best := from, math.Inf(-1)
		for i := from; i < to; i++ {
			least := math.Inf(1)
			for _, a := range spread {
				least = min(least, (axes[a].oriented(cols[a][i])-lo[a])*scale[a])
			}
			if least > best {
				pivot, best = i, least
			}
		}
		pivots[w], bests[w] = pivot, best
	})
	pivot := pivots[0]
	for w := 1; w < workers; w++ {
		if bests[w] > bests[0] {
			pivot, bests[0] = pivots[w], bests[w]
		}
	}
	p := orientedRow(sp, axes, int32(pivot), make([]float64, d))
	keptRuns, maskRuns := make([][]int32, workers), make([][]uint64, workers)
	feature.Parallel(workers, func(w int) {
		from, to := run(w)
		for i := from; i < to; i++ {
			var m uint64
			below := true
			for a, ax := range axes {
				if ax.oriented(cols[a][i]) >= p[a] {
					below = false
					m |= 1 << (a & 63)
				}
			}
			if !below {
				keptRuns[w] = append(keptRuns[w], int32(i))
				maskRuns[w] = append(maskRuns[w], m)
			}
		}
	})
	return slices.Concat(keptRuns...), slices.Concat(maskRuns...)
}

// window is one scan's running skyline in scan order: its items' ids,
// masks, keys (oriented row sums, non-increasing) and rows, the rows
// contiguous.
type window struct {
	d     int
	ids   []int32
	masks []uint64
	keys  []float64
	rows  []float64
}

func (w *window) row(j int) []float64 { return w.rows[j*w.d : j*w.d+w.d] }

// offer adds item id, of key k no greater than any window item's, to the
// window unless a window item dominates it, evicting the window items it
// dominates. Those can only be the ones of key k, at the window's end: an
// item that dominates another has at least its (rounded) sum.
func (w *window) offer(id int32, m uint64, k float64, v []float64) {
	for j, mj := range w.masks {
		if m&^mj == 0 && domOriented(w.row(j), v) {
			return
		}
	}
	tail := len(w.ids)
	for tail > 0 && w.keys[tail-1] == k {
		tail--
	}
	out := tail
	for j := tail; j < len(w.ids); j++ {
		if w.masks[j]&^m == 0 && domOriented(v, w.row(j)) {
			continue
		}
		w.ids[out], w.masks[out], w.keys[out] = w.ids[j], w.masks[j], w.keys[j]
		copy(w.rows[out*w.d:], w.row(j))
		out++
	}
	w.ids = append(w.ids[:out], id)
	w.masks = append(w.masks[:out], m)
	w.keys = append(w.keys[:out], k)
	w.rows = append(w.rows[:out*w.d], v...)
}

// Apply derives the head set of a child space from this (parent) set after
// a delta build, without rescanning the catalogue. remap maps parent dense
// IDs to child dense IDs (negative = removed), dirty lists the parent IDs
// whose rows were removed or replaced, added lists the child IDs of new or
// replaced rows. Inserting items only requires dominance checks against
// the evolving head set — a non-head cannot newly block anything a head
// doesn't already block (dominance is transitive) — so insert-only batches
// cost O(|added|·s·d). Removing a head may expose items it alone
// dominated; that case (and a profile change) returns ok=false and the
// caller recomputes via Heads.
func (s *Set) Apply(child *feature.Space, remap []int32, dirty, added []int32) (ns *Set, ok bool) {
	if !slices.Equal(s.axes, profileAxes(child.Profile)) {
		return nil, false
	}
	for _, pd := range dirty {
		if s.Contains(pd) {
			return nil, false
		}
	}
	members := make([]int32, 0, len(s.members)+len(added))
	for _, pd := range s.members {
		nd := remap[pd]
		if nd < 0 {
			return nil, false // removed head the dirty list missed
		}
		members = append(members, nd)
	}
	d := len(s.axes)
	if d == 0 {
		members = append(members, added...)
		return newSet(s.axes, members, child.N()), true
	}
	rows := make([]float64, 0, (len(members)+len(added))*d)
	for _, id := range members {
		rows = append(rows, orientedRow(child, s.axes, id, make([]float64, d))...)
	}
	buf := make([]float64, d)
	for _, id := range added {
		v := orientedRow(child, s.axes, id, buf)
		dominated := false
		for j := 0; j < len(members); j++ {
			if domOriented(rows[j*d:j*d+d], v) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out := members[:0]
		orows := rows[:0]
		for j := 0; j < len(members); j++ {
			if !domOriented(v, rows[j*d:j*d+d]) {
				out = append(out, members[j])
				orows = append(orows, rows[j*d:j*d+d]...)
			}
		}
		members = append(out, id)
		rows = append(orows, v...)
	}
	return newSet(s.axes, members, child.N()), true
}
