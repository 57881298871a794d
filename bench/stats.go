package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}

// rank is the nearest-rank order statistic of an ascending slice: the
// smallest sample with at least q·n samples at or below it. Exact — taken
// from the raw values, not from histogram buckets.
func rank(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

// median of the raw samples (mean of the two middle ones when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	asc := sorted(xs)
	n := len(asc)
	if n%2 == 1 {
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

// tail applies the percentile rule to raw samples: p95 when at least 200
// samples stand behind it, otherwise the highest percentile that still has
// ten samples beyond it, and the median when even that would fall below
// it. It returns the value and the percentile it is (0.95, 0.93, ...), so
// the output can name what was actually reported.
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	asc := sorted(xs)
	switch {
	case n >= 200:
		return rank(asc, 0.95), 0.95
	case n >= 20:
		return asc[n-11], float64(n-10) / float64(n)
	}
	return median(asc), 0.5
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// gives them (the exclusive method) — what the benchmark's steadiness is
// judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	asc := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return asc[j-1] + (pos-float64(j))*(asc[j]-asc[j-1])
	}
	return q(1), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
