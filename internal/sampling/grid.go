// Grid and quadtree approximations of the center of the valid weight
// polytope (paper §3.2.1, Figure 3). The weight box [-1,1]^d is divided
// into cells; a cell is discarded when some feedback constraint excludes it
// entirely, and the polytope center is approximated by the mean of the
// centers of the surviving cells.
package sampling

import (
	"fmt"

	"toppkg/internal/prefgraph"
)

// cellMaySatisfy reports whether the axis-aligned box [lo,hi] contains any
// point satisfying constraint c, i.e. whether max_{w∈box} w·Diff ≥ 0. The
// maximum of a linear function over a box is attained at the corner that
// picks hi where the coefficient is positive and lo where it is negative —
// an O(d) check, as the paper notes (§3.2.1).
func cellMaySatisfy(c *prefgraph.Constraint, lo, hi []float64) bool {
	m := 0.0
	for j, diff := range c.Diff {
		if diff > 0 {
			m += diff * hi[j]
		} else {
			m += diff * lo[j]
		}
	}
	return m >= 0
}

// cellAllSatisfy reports whether every point of the box satisfies c, i.e.
// min_{w∈box} w·Diff ≥ 0.
func cellAllSatisfy(c *prefgraph.Constraint, lo, hi []float64) bool {
	m := 0.0
	for j, diff := range c.Diff {
		if diff > 0 {
			m += diff * lo[j]
		} else {
			m += diff * hi[j]
		}
	}
	return m >= 0
}

// gridCenter divides [-1,1]^d into res^d equal cells and averages the
// centers of the cells not eliminated by any constraint (Figure 3b).
func gridCenter(d int, cs []prefgraph.Constraint, res int) ([]float64, error) {
	lo := make([]float64, d)
	hi := make([]float64, d)
	idx := make([]int, d)
	sum := make([]float64, d)
	count := 0
	width := 2.0 / float64(res)
	for {
		for j := 0; j < d; j++ {
			lo[j] = -1 + float64(idx[j])*width
			hi[j] = lo[j] + width
		}
		ok := true
		for i := range cs {
			if !cellMaySatisfy(&cs[i], lo, hi) {
				ok = false
				break
			}
		}
		if ok {
			for j := 0; j < d; j++ {
				sum[j] += (lo[j] + hi[j]) / 2
			}
			count++
		}
		// Advance the mixed-radix cell index.
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < res {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("sampling: no grid cell can satisfy all %d constraints (resolution %d)", len(cs), res)
	}
	for j := 0; j < d; j++ {
		sum[j] /= float64(count)
	}
	return sum, nil
}

// quadtreeCenter recursively subdivides [-1,1]^d (2^d children per split,
// the d-dimensional analogue of a quad-tree [12]) down to cells of the same
// width as a res-cell grid. Subtrees excluded by some constraint are pruned
// without expansion, and subtrees satisfying every constraint contribute
// their center weighted by their cell count without expansion — the
// hierarchical organization §3.2.1 suggests for finding violating cells.
func quadtreeCenter(d int, cs []prefgraph.Constraint, res int) ([]float64, error) {
	// Depth so that 2^depth ≥ res.
	depth := 0
	for (1 << depth) < res {
		depth++
	}
	sum := make([]float64, d)
	var count float64

	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = -1, 1
	}

	var rec func(lo, hi []float64, level int, active []int)
	rec = func(lo, hi []float64, level int, active []int) {
		// Filter the constraints still undecided for this box.
		var still []int
		for _, ci := range active {
			c := &cs[ci]
			if !cellMaySatisfy(c, lo, hi) {
				return // entire box invalid
			}
			if !cellAllSatisfy(c, lo, hi) {
				still = append(still, ci)
			}
		}
		if len(still) == 0 || level == depth {
			// A box every constraint accepts, or an undecided leaf: it
			// counts as surviving, like the flat grid's overlap cells.
			// Weight by the number of unit cells this box represents so the
			// result matches the flat grid's cell-average semantics.
			cells := 1.0
			for i := 0; i < (depth-level)*d; i++ {
				cells *= 2
			}
			for j := 0; j < d; j++ {
				sum[j] += cells * (lo[j] + hi[j]) / 2
			}
			count += cells
			return
		}
		// Split into 2^d children.
		cl := make([]float64, d)
		ch := make([]float64, d)
		for mask := 0; mask < 1<<d; mask++ {
			for j := 0; j < d; j++ {
				mid := (lo[j] + hi[j]) / 2
				if mask&(1<<j) == 0 {
					cl[j], ch[j] = lo[j], mid
				} else {
					cl[j], ch[j] = mid, hi[j]
				}
			}
			rec(append([]float64(nil), cl...), append([]float64(nil), ch...), level+1, still)
		}
	}
	all := make([]int, len(cs))
	for i := range all {
		all[i] = i
	}
	rec(lo, hi, 0, all)
	if count == 0 {
		return nil, fmt.Errorf("sampling: no quadtree cell can satisfy all %d constraints (depth %d)", len(cs), depth)
	}
	for j := 0; j < d; j++ {
		sum[j] /= count
	}
	return sum, nil
}
