// Feasibility of a constraint set before any blind draw. The valid region
// under noise-free feedback is the weight box cut by the convex cone
// {w : w·Diff ≥ 0 for every constraint} (Lemma 2). Whether that cone has an
// interior point is decided here by geometry in d dimensions, instead of by
// how many prior draws happen to land in it.
package sampling

import (
	"math"
	"slices"

	"toppkg/internal/prefgraph"
)

// interior returns a point w of the box [-1,1]^d with w·Diff > 0 for every
// constraint of cs whose Diff is non-zero (a zero Diff excludes no vector),
// or false when the cone has no interior point.
//
// By Gordan's theorem the cone has an interior point iff the origin lies
// outside the convex hull of the constraints' unit normals. Wolfe's
// minimum-norm-point algorithm finds the hull point p nearest the origin;
// when p ≠ 0 every normal a has a·p ≥ ‖p‖² > 0, so p is an interior point.
// It is scaled to half the box, where the chain's steps stay inside.
func interior(d int, cs []prefgraph.Constraint) ([]float64, bool) {
	var pts [][]float64
	for i := range cs {
		norm := math.Sqrt(dot(cs[i].Diff, cs[i].Diff))
		if norm == 0 {
			continue
		}
		a := make([]float64, d)
		for j, x := range cs[i].Diff {
			a[j] = x / norm
		}
		pts = append(pts, a)
	}
	if len(pts) == 0 {
		return make([]float64, d), true // nothing cuts the box
	}
	x := append([]float64(nil), pts[0]...)
	corral, lambda := []int{0}, []float64{1}
	const tol = 1e-12
	for iter := 0; iter < 10*(len(pts)+d); iter++ {
		// Major cycle: the normal most opposed to x joins the corral; when
		// none is, x is the nearest point.
		j, low := -1, dot(x, x)-tol
		for i, a := range pts {
			if v := dot(a, x); v < low {
				j, low = i, v
			}
		}
		if j < 0 || slices.Contains(corral, j) {
			break
		}
		corral, lambda = append(corral, j), append(lambda, 0)
		// Minor cycles: move toward the corral's affine minimizer, dropping
		// the points whose weight reaches zero, until the minimizer lies in
		// the corral's hull.
		for {
			alpha := affineMin(pts, corral)
			if alpha == nil {
				break // affinely dependent by rounding: decide on x as it is
			}
			theta := 1.0
			for i, al := range alpha {
				if al <= 0 {
					theta = math.Min(theta, lambda[i]/(lambda[i]-al))
				}
			}
			k := 0
			for i := range corral {
				if l := (1-theta)*lambda[i] + theta*alpha[i]; l > tol {
					corral[k], lambda[k] = corral[i], l
					k++
				}
			}
			corral, lambda = corral[:k], lambda[:k]
			clear(x)
			for i, c := range corral {
				for jj, v := range pts[c] {
					x[jj] += lambda[i] * v
				}
			}
			if theta == 1 {
				break
			}
		}
	}
	scale := 0.0
	for _, v := range x {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		return nil, false
	}
	for j := range x {
		x[j] /= 2 * scale
	}
	for _, a := range pts {
		if dot(a, x) <= 0 {
			return nil, false // the origin is in the hull, or rounding hid a margin
		}
	}
	return x, true
}

// affineMin returns the weights α, summing to 1, of the point of the
// affine hull of pts[corral] nearest the origin: the solution of
// [G 1; 1ᵀ 0][α; μ] = [0; 1] with G the corral's Gram matrix, by
// Gauss–Jordan elimination with partial pivoting. It returns nil when the
// system is singular.
func affineMin(pts [][]float64, corral []int) []float64 {
	k := len(corral)
	m := make([][]float64, k+1)
	for i := range m {
		m[i] = make([]float64, k+2)
		for j := 0; j < k; j++ {
			if i < k {
				m[i][j] = dot(pts[corral[i]], pts[corral[j]])
			} else {
				m[i][j] = 1
			}
		}
		if i < k {
			m[i][k] = 1
		}
	}
	m[k][k+1] = 1
	for c := 0; c <= k; c++ {
		p := c
		for r := c + 1; r <= k; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		if math.Abs(m[p][c]) < 1e-14 {
			return nil
		}
		m[c], m[p] = m[p], m[c]
		for r := 0; r <= k; r++ {
			if r == c {
				continue
			}
			f := m[r][c] / m[c][c]
			for j := c; j <= k+1; j++ {
				m[r][j] -= f * m[c][j]
			}
		}
	}
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = m[i][k+1] / m[i][i]
	}
	return alpha
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}
