package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of a paired comparison. A metric is unresolved when a side's
// own runs spread wider than the bound: the runs cannot tell a regression
// of that size from noise, which is not the same as finding none.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // per-layer metric: no bound, shown for attribution
)

// compareRow is one workload × metric pairing.
type compareRow struct {
	Workload, Metric, Unit string
	Base, New              float64 // medians over each side's result files
	Tolerance              float64 // max(bound × |base|, floor); 0 for per-layer metrics
	Verdict                string
}

// verdict judges one end-to-end metric: worseBy is how far the new median
// moved in the bad direction.
func verdict(d metricDecl, base, cand []float64) (string, float64) {
	b, c := median(base), median(cand)
	tol := max(d.Bound*math.Abs(b), floors[d.Name])
	for _, side := range [][]float64{base, cand} {
		if q1, q3 := quartiles(side); q3-q1 > tol {
			return verdictUnresolved, tol
		}
	}
	worseBy := c - b
	if d.Better == "higher" {
		worseBy = b - c
	}
	switch {
	case worseBy > tol:
		return verdictWorse, tol
	case worseBy < -tol:
		return verdictBetter, tol
	}
	return verdictWithin, tol
}

// compareResults pairs the two sides' medians per workload × metric. It
// reports failure when any end-to-end metric is worse or a workload's
// failed share rose.
func compareResults(spec *benchSpec, base, cand []result) (rows []compareRow, failed bool, notes []string) {
	type key struct{ wl, metric string }
	collect := func(rs []result) (map[key][]float64, map[string][2]int) {
		vals := map[key][]float64{}
		fails := map[string][2]int{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], m.Value)
			}
			f := fails[r.Workload]
			fails[r.Workload] = [2]int{f[0] + r.Failed, f[1] + r.Attempted}
		}
		return vals, fails
	}
	bv, bf := collect(base)
	cv, cf := collect(cand)
	var wls []string
	for wl := range bf {
		if _, ok := cf[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	for _, wl := range wls {
		for _, group := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
			for _, d := range group {
				b, c := bv[key{wl, d.Name}], cv[key{wl, d.Name}]
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				row := compareRow{Workload: wl, Metric: d.Name, Unit: d.Unit, Base: median(b), New: median(c), Verdict: verdictInfo}
				if d.Bound > 0 {
					row.Verdict, row.Tolerance = verdict(d, b, c)
					failed = failed || row.Verdict == verdictWorse
				} else if bound, ok := watched[d.Name]; ok {
					d.Bound = bound
					row.Verdict, row.Tolerance = verdict(d, b, c)
				}
				rows = append(rows, row)
			}
		}
		bs, cs := share(float64(bf[wl][0]), float64(bf[wl][1])), share(float64(cf[wl][0]), float64(cf[wl][1]))
		if cs > bs {
			failed = true
			notes = append(notes, fmt.Sprintf("%s: failed share rose from %.4g to %.4g", wl, bs, cs))
		}
	}
	return rows, failed, notes
}

func loadResults(paths []string) ([]result, error) {
	var out []result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareMain is -compare: base.json... -- new.json... It returns the exit
// code: 1 when an end-to-end metric got worse or more ops failed.
func compareMain(spec *benchSpec, args []string, w io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(w, "usage: -compare base.json... -- new.json...")
		return 2
	}
	base, err := loadResults(args[:split])
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	cand, err := loadResults(args[split+1:])
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	rows, failed, notes := compareResults(spec, base, cand)
	fmt.Fprintf(w, "%-13s %-40s %14s %14s %9s %12s  %s\n", "workload", "metric", "base", "new", "change", "tolerance", "verdict")
	for _, r := range rows {
		change, tol := "n/a", ""
		if r.Base != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(r.New-r.Base)/math.Abs(r.Base))
		}
		if r.Tolerance > 0 {
			tol = fmt.Sprintf("%.4g", r.Tolerance)
		}
		fmt.Fprintf(w, "%-13s %-40s %14.6g %14.6g %9s %12s  %s\n", r.Workload, r.Metric+" ["+r.Unit+"]", r.Base, r.New, change, tol, r.Verdict)
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "medians over %d base and %d new result files\n", len(base), len(cand))
	if failed {
		return 1
	}
	return 0
}
