// Grid approximation of the center of the valid weight polytope (paper
// §3.2.1, Figure 3b). The weight box [-1,1]^d is divided into cells; a cell
// is discarded when some feedback constraint excludes it entirely, and the
// polytope center is approximated by the mean of the centers of the
// surviving cells.
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

// gridCenter divides [-1,1]^d into gridRes^d equal cells and averages the
// centers of the cells not eliminated by any constraint (Figure 3b).
func gridCenter(d int, cs []prefgraph.Constraint) ([]float64, error) {
	lo := make([]float64, d)
	hi := make([]float64, d)
	idx := make([]int, d)
	sum := make([]float64, d)
	count := 0
	width := 2.0 / gridRes
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
			if idx[j] < gridRes {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("sampling: no grid cell can satisfy all %d constraints (resolution %d)", len(cs), gridRes)
	}
	for j := 0; j < d; j++ {
		sum[j] /= float64(count)
	}
	return sum, nil
}
