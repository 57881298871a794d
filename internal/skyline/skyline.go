// Package skyline computes a space's head set: the items no other item
// dominates on every dimension a monotone utility reads (the skyline, or
// Pareto-optimal set, under the profile's canonical directions). The
// search layer uses it as a frontier filter for dominance pruning, and the
// catalogue maintains it across delta epoch builds.
package skyline

import (
	"slices"
	"sort"

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

// orientedRow fills buf with the item's oriented values on the active
// axes: sign-flipped so that larger is always better, nulls mapped to the
// worst oriented value. With this encoding dominance is the plain
// "all ≥, one >" test regardless of direction.
func orientedRow(sp *feature.Space, axes []axis, id int32, buf []float64) []float64 {
	buf = buf[:len(axes)]
	for a, ax := range axes {
		v := sp.Col(ax.feat)[id]
		switch {
		case feature.IsNull(v):
			if ax.smaller {
				buf[a] = -nullWorst
			} else {
				buf[a] = 0
			}
		case ax.smaller:
			buf[a] = -v
		default:
			buf[a] = v
		}
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

// profileAxes extracts the active axes of a profile.
func profileAxes(p *feature.Profile) []axis {
	var axes []axis
	for d := 0; d < p.Dims(); d++ {
		e := p.Entry(d)
		switch e.Agg {
		case feature.AggSum, feature.AggMax:
			axes = append(axes, axis{feat: e.Feature})
		case feature.AggMin:
			axes = append(axes, axis{feat: e.Feature, smaller: true})
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
// window scan over the space's columns: O(n log n) for the presort plus
// O(n·s·d) window comparisons where s is the running skyline size.
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
	rows := make([]float64, n*d)
	keys := make([]float64, n)
	order := make([]int32, n)
	for i := 0; i < n; i++ {
		row := orientedRow(sp, axes, int32(i), rows[i*d:(i+1)*d])
		k := 0.0
		for _, v := range row {
			k += v
		}
		keys[i] = k
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if keys[ia] != keys[ib] {
			return keys[ia] > keys[ib]
		}
		return ia < ib
	})
	var window []int32
	for _, i := range order {
		v := rows[int(i)*d : int(i)*d+d]
		dominated := false
		for _, j := range window {
			if domOriented(rows[int(j)*d:int(j)*d+d], v) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out := window[:0]
		for _, j := range window {
			if !domOriented(v, rows[int(j)*d:int(j)*d+d]) {
				out = append(out, j)
			}
		}
		window = append(out, i)
	}
	return newSet(axes, window, n)
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
