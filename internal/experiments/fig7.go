package experiments

import (
	"fmt"
	"sort"
	"time"

	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/maintain"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/sampling"
	"toppkg/internal/topk"
)

// fig7Buckets are the paper's violation-count buckets (Figure 7a): results
// are grouped by the maximum number of samples a feedback invalidates.
var fig7Buckets = []int{0, 1, 5, 20, 50, 200, 1000}

// Fig7 reproduces Figure 7 (§5.5): the cost of the three sample-maintenance
// strategies — naive scan, TA-based search, and the hybrid of Algorithm 1 —
// as the number of samples rejected by new feedback varies (a), and the
// hybrid's sensitivity to γ (b).
func Fig7(p Params) ([]Table, error) {
	rng := p.rng(7)
	nSamples := p.scaled(10000)
	nPrefs := p.scaled(1000)
	const features = 5

	sp, err := buildSpace("uni", 2000, features, 3, rng)
	if err != nil {
		return nil, err
	}
	// The pool models a session in progress: past feedback has already
	// concentrated the samples around the user's hidden weight vector
	// (a fresh symmetric prior would make every feedback split the pool
	// ~50/50 and empty the low-violation buckets the paper reports).
	wStar := hiddenW(features, rng)
	posterior := gaussmix.Gaussian(wStar, 0.45)
	samples := make([]sampling.Sample, nSamples)
	for i := range samples {
		samples[i] = sampling.Sample{W: posterior.Sample(rng), Q: 1}
	}
	pool := topk.NewPool(sampling.Weights(samples))

	// Feedback over random package pairs: mostly oriented by the same
	// hidden user (few violators, the margin decides how few), a minority
	// reversed (exploration clicks / noise) to populate the
	// large-violation buckets of Figure 7(a).
	pkgs := randomPackages(sp, p.scaled(5000), rng)
	vecs := make([][]float64, len(pkgs))
	for i := range pkgs {
		vecs[i] = pkgspace.Vector(sp, pkgs[i])
	}
	queries := make([][]float64, 0, nPrefs)
	for len(queries) < nPrefs {
		i, j := rng.Intn(len(pkgs)), rng.Intn(len(pkgs))
		if i == j {
			continue
		}
		ui := feature.Dot(wStar, vecs[i])
		uj := feature.Dot(wStar, vecs[j])
		if ui == uj {
			continue
		}
		if (ui < uj) != (rng.Float64() < 0.15) {
			// Winner should be j: either the user truly prefers j (85%) or
			// this is one of the reversed/noisy clicks (15%).
			i, j = j, i
		}
		c := prefgraph.Constraint{Winner: pkgs[i], Loser: pkgs[j], Diff: diff(vecs[i], vecs[j])}
		queries = append(queries, maintain.Query(c))
	}

	// (a) Bucketed costs.
	type agg struct {
		n                    int
		naive, ta, hybrid    float64
		wNaive, wTA, wHybrid float64
	}
	buckets := make([]agg, len(fig7Buckets))
	naive := &maintain.Naive{P: pool}
	ta := &maintain.TA{P: pool}
	hybrid := &maintain.Hybrid{P: pool, Gamma: 0.025}
	for _, q := range queries {
		viol, _ := naive.Violators(q)
		b := bucketOf(len(viol), nSamples)
		buckets[b].n++
		start := time.Now()
		naive.Violators(q)
		buckets[b].naive += time.Since(start).Seconds()
		start = time.Now()
		_, workTA := ta.Violators(q)
		buckets[b].ta += time.Since(start).Seconds()
		start = time.Now()
		_, workH := hybrid.Violators(q)
		buckets[b].hybrid += time.Since(start).Seconds()
		buckets[b].wNaive += float64(nSamples)
		buckets[b].wTA += float64(workTA)
		buckets[b].wHybrid += float64(workH)
	}
	ta7 := Table{
		Title: fmt.Sprintf("Figure 7(a): maintenance cost by violation bucket (%d samples, %d feedbacks)",
			nSamples, nPrefs),
		Header: []string{"max_violations", "feedbacks", "naive_ms", "ta_ms", "hybrid_ms",
			"naive_work", "ta_work", "hybrid_work"},
		Notes: "paper shape: TA wins at small violation counts, naive wins at large, hybrid tracks the best",
	}
	for b, a := range buckets {
		if a.n == 0 {
			continue
		}
		n := float64(a.n)
		ta7.Rows = append(ta7.Rows, cells(
			bucketLabel(b, nSamples), a.n,
			ms(a.naive/n), ms(a.ta/n), ms(a.hybrid/n),
			int(a.wNaive/n), int(a.wTA/n), int(a.wHybrid/n),
		))
	}

	// (b) γ sweep: cost ratios vs naive. Work counts are deterministic;
	// times take the fastest of several passes to shed scheduler noise.
	tb := Table{
		Title:  "Figure 7(b): hybrid/TA cost vs naive while varying γ",
		Header: []string{"gamma", "ta_work_ratio", "hybrid_work_ratio", "ta_time_ratio", "hybrid_time_ratio"},
		Notes:  "paper: hybrid best at small γ (≈15% win at 0.025 on their cost profile), approaches pure TA as γ grows",
	}
	timeOf := func(c maintain.Checker) (workTotal int, secs float64) {
		best := 0.0
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			w := 0
			for _, q := range queries {
				_, wk := c.Violators(q)
				w += wk
			}
			el := time.Since(start).Seconds()
			if rep == 0 || el < best {
				best = el
			}
			workTotal = w
		}
		return workTotal, best
	}
	naiveWork, naiveTime := timeOf(naive)
	taWork, taTime := timeOf(ta)
	for _, gamma := range []float64{0.000001, 0.025, 0.05, 0.075, 0.1, 0.5, 1, 2} {
		h := &maintain.Hybrid{P: pool, Gamma: gamma}
		hWork, hTime := timeOf(h)
		label := fmt.Sprintf("%.3g", gamma)
		if gamma < 0.0001 {
			label = "0"
		}
		tb.Rows = append(tb.Rows, cells(label,
			fmt.Sprintf("%.3f", float64(taWork)/float64(naiveWork)),
			fmt.Sprintf("%.3f", float64(hWork)/float64(naiveWork)),
			fmt.Sprintf("%.3f", taTime/naiveTime),
			fmt.Sprintf("%.3f", hTime/naiveTime)))
	}
	return []Table{ta7, tb}, nil
}

func diff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// bucketOf maps a violation count to the paper's bucket index ("results
// are placed in the bucket with the smallest qualifying label"), with the
// final bucket covering everything larger.
func bucketOf(violations, nSamples int) int {
	scaledBuckets := scaledFig7Buckets(nSamples)
	i := sort.SearchInts(scaledBuckets, violations)
	if i >= len(scaledBuckets) {
		i = len(scaledBuckets) - 1
	}
	return i
}

func bucketLabel(b, nSamples int) string {
	return fmt.Sprintf("%d", scaledFig7Buckets(nSamples)[b])
}

// scaledFig7Buckets rescales the paper's buckets (defined for 10000
// samples) to the actual pool size.
func scaledFig7Buckets(nSamples int) []int {
	out := make([]int, len(fig7Buckets))
	for i, b := range fig7Buckets {
		out[i] = b * nSamples / 10000
		if i > 0 && out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	return out
}
