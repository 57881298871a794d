package main

import (
	"math"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// declared reports whether BENCHMARK.json declares the metric, and whether
// as an end-to-end one.
func declared(s *benchSpec, name string) (e2e, ok bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return true, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return false, true
		}
	}
	return false, false
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeclaration checks BENCHMARK.json against the caps and the workload
// table against BENCHMARK.json.
func TestDeclaration(t *testing.T) {
	spec := testSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, defined %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, group := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, m := range group {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s is not declared")
	}
	for name := range floors {
		if _, ok := declared(spec, name); !ok {
			t.Errorf("floor for %s, which is not declared", name)
		}
	}
	for name := range watched {
		if e2e, ok := declared(spec, name); !ok || e2e {
			t.Errorf("%s is watched but not a per-layer metric", name)
		}
	}
}

// checkNames asserts the run measured every declared metric of its mode
// and nothing undeclared.
func checkNames(t *testing.T, spec *benchSpec, out *outcome, want []metricDecl) {
	t.Helper()
	for _, d := range want {
		m, ok := out.rep.m[d.Name]
		if !ok {
			t.Errorf("declared metric %s was not measured", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range out.rep.m {
		if _, ok := declared(spec, name); !ok {
			t.Errorf("measured metric %s is not declared", name)
		}
	}
	if !out.correct {
		t.Errorf("output checks failed: %v", out.problems)
	}
	if out.failed != 0 {
		t.Errorf("%d of %d ops failed", out.failed, out.attempted)
	}
}

// TestQuickSmoke runs every workload untraced at smoke sizes, and one of
// them traced.
func TestQuickSmoke(t *testing.T) {
	spec := testSpec(t)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			if raceDetector && wl.rate > 0 {
				t.Skip("an open loop sheds under the race detector's slowdown")
			}
			out, err := runUntraced(newRunCfg(wl, 1, 0.4, true))
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, spec, out, spec.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		churn, err := findWorkload("serve_churn")
		if err != nil {
			t.Fatal(err)
		}
		out, err := runTraced(newRunCfg(churn, 1, 0.8, true), "")
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, spec, out, spec.PerLayer)
	})
}

func TestOpStreamHash(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b, c := opStreamHash(wl, 1, 512), opStreamHash(wl, 1, 512), opStreamHash(wl, 2, 512)
		if a != b {
			t.Errorf("%s: the same seed gave op streams %x and %x", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream %x", wl.name, a)
		}
	}
}

func TestTail(t *testing.T) {
	upTo := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		v, pct  float64
		comment string
	}{
		{1000, 950, 0.95, "p95 by nearest rank"},
		{200, 190, 0.95, "exactly ten samples beyond p95"},
		{199, 189, 189.0 / 199, "too few for p95: ten samples beyond"},
		{50, 40, 0.8, "ten samples beyond"},
		{20, 10, 0.5, "ten of twenty beyond"},
		{19, 10, 0.5, "falls back to the median"},
		{1, 1, 0.5, "one sample"},
	} {
		v, pct := tail(upTo(tc.n))
		if v != tc.v || math.Abs(pct-tc.pct) > 1e-12 {
			t.Errorf("n=%d (%s): got %g at p%g, want %g at p%g", tc.n, tc.comment, v, 100*pct, tc.v, 100*tc.pct)
		}
	}
	if v, pct := tail(nil); v != 0 || pct != 0 {
		t.Errorf("no samples: got %g at p%g", v, 100*pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g; want 0.75, 2.25", q1, q3)
	}
}

func TestBoxSlowdown(t *testing.T) {
	// 100 samples: a spell doubles 40 of them, five were descheduled.
	var us []float64
	for i := 0; i < 100; i++ {
		switch {
		case i < 5:
			us = append(us, 5000)
		case i < 45:
			us = append(us, 120)
		default:
			us = append(us, 60)
		}
	}
	// The slowest twentieth is dropped: (40·120 + 55·60) / 95 over the 60 of
	// the undisturbed samples.
	if got, want := boxSlowdown(us), (40*120.0+55*60.0)/95/60; math.Abs(got-want) > 1e-12 {
		t.Errorf("boxSlowdown = %g, want %g", got, want)
	}
	if got := boxSlowdown(us[:yardSamples-1]); got != 1 {
		t.Errorf("too few samples: boxSlowdown = %g, want 1", got)
	}
	if d := yardOnce(); d <= 0 {
		t.Errorf("yardOnce took %v", d)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricDecl{
			{Name: "login_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "refresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.1},
			{Name: "slo_share", Unit: "share", Better: "higher", Bound: 0.005},
		},
		PerLayer: []metricDecl{
			{Name: "search.topk_p50_us", Unit: "us", Better: "lower"},
			{Name: "click_p50_ms", Unit: "ms", Better: "lower"}, // watched: judged, never fatal
		},
	}
	side := func(failed int, vals ...map[string]float64) []result {
		var rs []result
		for _, v := range vals {
			r := result{Workload: "w", Attempted: 100, Failed: failed, Metrics: map[string]metric{}}
			for k, x := range v {
				r.Metrics[k] = metric{Value: x}
			}
			rs = append(rs, r)
		}
		return rs
	}
	base := side(0,
		map[string]float64{"login_p50_ms": 30, "refresh_p50_ms": 0.15, "throughput_ops_s": 100, "slo_share": 0.98, "search.topk_p50_us": 900},
		map[string]float64{"login_p50_ms": 31, "refresh_p50_ms": 0.15, "throughput_ops_s": 101, "slo_share": 0.98, "search.topk_p50_us": 910},
		map[string]float64{"login_p50_ms": 30.5, "refresh_p50_ms": 0.15, "throughput_ops_s": 99, "slo_share": 0.98, "search.topk_p50_us": 905})
	want := func(rows []compareRow, metric, verdict string) {
		t.Helper()
		for _, r := range rows {
			if r.Metric == metric {
				if r.Verdict != verdict {
					t.Errorf("%s: verdict %s, want %s (base %g, new %g, tolerance %g)", metric, r.Verdict, verdict, r.Base, r.New, r.Tolerance)
				}
				return
			}
		}
		t.Errorf("%s: no row", metric)
	}

	// Slower login beyond the bound; refresh 27% slower but inside the
	// 0.05 ms floor; throughput up beyond the bound; slo down by less than
	// its 0.01 floor although beyond its relative bound.
	cand := side(0,
		map[string]float64{"login_p50_ms": 35, "refresh_p50_ms": 0.19, "throughput_ops_s": 120, "slo_share": 0.972, "search.topk_p50_us": 400},
		map[string]float64{"login_p50_ms": 35.2, "refresh_p50_ms": 0.19, "throughput_ops_s": 121, "slo_share": 0.972, "search.topk_p50_us": 410})
	rows, failed, _ := compareResults(spec, base, cand)
	want(rows, "login_p50_ms", verdictWorse)
	want(rows, "refresh_p50_ms", verdictWithin)
	want(rows, "throughput_ops_s", verdictBetter)
	want(rows, "slo_share", verdictWithin)
	want(rows, "search.topk_p50_us", verdictInfo)
	if !failed {
		t.Error("a worse end-to-end metric did not fail the comparison")
	}

	// A watched per-layer metric gets a verdict but cannot fail the comparison.
	rows, failed, _ = compareResults(spec,
		side(0, map[string]float64{"click_p50_ms": 0.25}, map[string]float64{"click_p50_ms": 0.26}),
		side(0, map[string]float64{"click_p50_ms": 0.40}, map[string]float64{"click_p50_ms": 0.41}))
	want(rows, "click_p50_ms", verdictWorse)
	if failed {
		t.Error("a watched per-layer metric failed the comparison")
	}

	// A side whose own runs spread wider than the bound resolves nothing.
	noisy := side(0,
		map[string]float64{"login_p50_ms": 25, "refresh_p50_ms": 0.15, "throughput_ops_s": 100, "slo_share": 0.98},
		map[string]float64{"login_p50_ms": 30, "refresh_p50_ms": 0.15, "throughput_ops_s": 100, "slo_share": 0.98},
		map[string]float64{"login_p50_ms": 40, "refresh_p50_ms": 0.15, "throughput_ops_s": 100, "slo_share": 0.98})
	rows, failed, _ = compareResults(spec, base, noisy)
	want(rows, "login_p50_ms", verdictUnresolved)
	want(rows, "throughput_ops_s", verdictWithin)
	if failed {
		t.Error("an unresolved metric failed the comparison")
	}

	// More failed ops fail the comparison whatever the metrics say.
	if _, failed, notes := compareResults(spec, base, side(1, base[0].metricsAsMap())); !failed || len(notes) == 0 {
		t.Error("a higher failed share did not fail the comparison")
	}
}

func (r result) metricsAsMap() map[string]float64 {
	out := map[string]float64{}
	for k, m := range r.Metrics {
		out[k] = m.Value
	}
	return out
}
