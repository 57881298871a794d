// Package stats provides the small statistical toolkit the experiments
// need: summaries, rank-correlation and set-overlap measures for comparing
// top-k lists across samplers and semantics (§5.4).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation of the sorted values.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary aggregates a sample of measurements.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Median, Max float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    StdDev(xs),
		Min:    Quantile(xs, 0),
		Median: Quantile(xs, 0.5),
		Max:    Quantile(xs, 1),
	}
}

// Jaccard returns |A∩B| / |A∪B| over two string sets given as slices
// (duplicates ignored); 1 for two empty sets.
func Jaccard(a, b []string) float64 {
	sa := toSet(a)
	sb := toSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for x := range sa {
		if sb[x] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// KendallTau computes the Kendall rank correlation between two orderings,
// restricted to their common elements: +1 when the shared elements appear
// in the same relative order, −1 when fully reversed, 0 for fewer than two
// shared elements.
func KendallTau(a, b []string) float64 {
	posB := make(map[string]int, len(b))
	for i, x := range b {
		posB[x] = i
	}
	var shared []int // positions in b of a's elements, in a's order
	for _, x := range a {
		if p, ok := posB[x]; ok {
			shared = append(shared, p)
		}
	}
	n := len(shared)
	if n < 2 {
		return 0
	}
	conc, disc := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if shared[i] < shared[j] {
				conc++
			} else {
				disc++
			}
		}
	}
	return float64(conc-disc) / float64(conc+disc)
}
