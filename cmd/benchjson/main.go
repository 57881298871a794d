// Command benchjson converts `go test -bench` output on stdin into a
// committed JSON trajectory file (BENCH_*.json): ns/op plus every custom
// metric the benchmarks report (cache hits/op, searches/op, dedup ratio,
// B/op, allocs/op), and baseline-vs-after comparisons for benchmarks that
// expose nocache/cached variants. Future PRs are judged against these
// numbers, so the file is the PR's performance evidence.
//
// With -serve, stdin instead holds loadgen JSON run records (one per
// run, concatenated), and the output is BENCH_serve.json: the raw run
// records plus static-vs-mutating comparisons of per-route latency
// quantiles and throughput. Runs already in the -out file are kept, and
// a new run with the same name replaces the old one — so the static and
// mutating halves can be generated in separate invocations.
//
// Usage:
//
//	go test -run '^$' -bench 'Fig6TopKPkg|Fig8' -benchmem . | benchjson -out BENCH_recommend.json
//	loadgen -duration 30s | benchjson -serve -out BENCH_serve.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"toppkg/internal/loadgen"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Comparison pairs a benchmark's baseline variant with its treated one:
// nocache vs cached for the batching pipeline, static vs mutating for the
// live-catalogue churn benchmark (where Speedup < 1 reads as the fraction
// of throughput retained under churn), full vs delta for epoch
// construction (Speedup is how much cheaper an incremental build is),
// unpruned vs pruned for the large-catalogue dominance filter (Speedup is
// what the skyline head skip buys per search), and unpruned vs
// partitioned (":partitioned" name suffix) for the sketch-refine
// partition.
type Comparison struct {
	Name             string  `json:"name"`
	BaselineNsPerOp  float64 `json:"baseline_ns_per_op"`
	AfterNsPerOp     float64 `json:"after_ns_per_op"`
	Speedup          float64 `json:"speedup"`
	BaselineSearches float64 `json:"baseline_searches_per_op,omitempty"`
	AfterSearches    float64 `json:"after_searches_per_op,omitempty"`
	AfterHitsPerOp   float64 `json:"after_hits_per_op,omitempty"`
	DedupRatio       float64 `json:"dedup_ratio,omitempty"`
}

// Report is the file layout.
type Report struct {
	Generated  string      `json:"generated"`
	GoVersion  string      `json:"go_version"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Comparisons derive from <name>/nocache vs <name>/cached and
	// <name>/static vs <name>/mutating pairs; the speedup is baseline
	// ns/op divided by after ns/op.
	Comparisons []Comparison `json:"comparisons,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkFig8ElicitationRound/cached-4   20  262562438 ns/op  125.0 hits/op
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.eE+]+) ns/op(.*)$`)

// metricPair matches the trailing "<value> <unit>" metric pairs.
var metricPair = regexp.MustCompile(`([0-9.eE+-]+) (\S+)`)

// parse consumes bench output and returns the results plus the cpu line.
func parse(lines []string) (benches []Benchmark, cpu string) {
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, mp := range metricPair.FindAllStringSubmatch(m[4], -1) {
			if v, err := strconv.ParseFloat(mp[1], 64); err == nil {
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[mp[2]] = v
			}
		}
		benches = append(benches, b)
	}
	return benches, cpu
}

// comparePairs are the baseline→after variant suffixes folded into
// Comparisons.
// suffix disambiguates comparisons sharing a baseline variant (the
// dominance filter and the sketch-refine partition are both measured
// against /unpruned).
var comparePairs = []struct{ base, after, suffix string }{
	{"/nocache", "/cached", ""},
	{"/static", "/mutating", ""},
	{"/full", "/delta", ""},
	{"/unpruned", "/pruned", ""},
	{"/unpruned", "/partitioned", ":partitioned"},
}

// compare pairs baseline variants with their treated counterparts.
func compare(benches []Benchmark) []Comparison {
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []Comparison
	for _, b := range benches {
		for _, pair := range comparePairs {
			parent, ok := strings.CutSuffix(b.Name, pair.base)
			if !ok {
				continue
			}
			after, ok := byName[parent+pair.after]
			if !ok {
				continue
			}
			c := Comparison{
				Name:            parent + pair.suffix,
				BaselineNsPerOp: b.NsPerOp,
				AfterNsPerOp:    after.NsPerOp,
			}
			if after.NsPerOp > 0 {
				c.Speedup = b.NsPerOp / after.NsPerOp
			}
			c.BaselineSearches = b.Metrics["searches/op"]
			c.AfterSearches = after.Metrics["searches/op"]
			c.AfterHitsPerOp = after.Metrics["hits/op"]
			c.DedupRatio = after.Metrics["dedup"]
			out = append(out, c)
		}
	}
	return out
}

// ServeComparison pairs one route's static-run latency with its
// mutating-run counterpart. P99Ratio is mutating p99 over static p99 —
// how much tail latency the route pays for background catalogue churn.
type ServeComparison struct {
	Route         string  `json:"route"`
	StaticP50Ms   float64 `json:"static_p50_ms"`
	MutatingP50Ms float64 `json:"mutating_p50_ms"`
	StaticP99Ms   float64 `json:"static_p99_ms"`
	MutatingP99Ms float64 `json:"mutating_p99_ms"`
	P99Ratio      float64 `json:"p99_ratio,omitempty"`
}

// ScaleoutComparison pairs one route's single-process latency with its
// sharded-gateway counterpart. P99Ratio is sharded p99 over single p99 —
// the tail-latency cost of the extra proxy hop (and, on a multi-core
// host, what the parallelism buys back).
type ScaleoutComparison struct {
	Route       string  `json:"route"`
	SingleP50Ms float64 `json:"single_p50_ms"`
	ShardedP50M float64 `json:"sharded_p50_ms"`
	SingleP99Ms float64 `json:"single_p99_ms"`
	ShardedP99M float64 `json:"sharded_p99_ms"`
	P99Ratio    float64 `json:"p99_ratio,omitempty"`
}

// ServeReport is the BENCH_serve.json layout: the loadgen run records
// verbatim, plus derived static-vs-mutating and single-vs-sharded
// comparisons.
type ServeReport struct {
	Generated string           `json:"generated"`
	GoVersion string           `json:"go_version"`
	CPUs      int              `json:"cpus"`
	Runs      []loadgen.Report `json:"runs"`
	// ThroughputRetained is mutating RPS over static RPS — the serving-path
	// analogue of the ChurnRecommend speedup in BENCH_recommend.json.
	ThroughputRetained float64           `json:"throughput_retained,omitempty"`
	Comparisons        []ServeComparison `json:"comparisons,omitempty"`
	// ShardScaleout is sharded RPS over static RPS (runs "sharded" vs
	// "static"); ShardMutatingScaleout the same for the churn pair. On a
	// single-core host expect ≤ 1 — shards add a proxy hop but compete for
	// the one core; the scale-out win needs cores for the shards to own.
	ShardScaleout         float64              `json:"shard_scaleout,omitempty"`
	ShardMutatingScaleout float64              `json:"shard_mutating_scaleout,omitempty"`
	ShardComparisons      []ScaleoutComparison `json:"shard_comparisons,omitempty"`
}

// upsertRun replaces the run with the same name or appends.
func upsertRun(runs []loadgen.Report, r loadgen.Report) []loadgen.Report {
	for i := range runs {
		if runs[i].Name == r.Name {
			runs[i] = r
			return runs
		}
	}
	return append(runs, r)
}

// compareServe derives route-by-route comparisons from the runs named
// "static" and "mutating" (loadgen's default labels). The healthz route
// is the harness pre-flight, not serving traffic, so it is skipped.
func compareServe(runs []loadgen.Report) ([]ServeComparison, float64) {
	var static, mutating *loadgen.Report
	for i := range runs {
		switch runs[i].Name {
		case "static":
			static = &runs[i]
		case "mutating":
			mutating = &runs[i]
		}
	}
	if static == nil || mutating == nil {
		return nil, 0
	}
	var routes []string
	for name, rr := range static.Routes {
		if name != "healthz" && rr.Count > 0 && mutating.Routes[name].Count > 0 {
			routes = append(routes, name)
		}
	}
	sort.Strings(routes)
	out := make([]ServeComparison, 0, len(routes))
	for _, name := range routes {
		s, m := static.Routes[name], mutating.Routes[name]
		c := ServeComparison{
			Route:         name,
			StaticP50Ms:   s.Latency.P50Ms,
			MutatingP50Ms: m.Latency.P50Ms,
			StaticP99Ms:   s.Latency.P99Ms,
			MutatingP99Ms: m.Latency.P99Ms,
		}
		if s.Latency.P99Ms > 0 {
			c.P99Ratio = m.Latency.P99Ms / s.Latency.P99Ms
		}
		out = append(out, c)
	}
	retained := 0.0
	if static.ThroughputRPS > 0 {
		retained = mutating.ThroughputRPS / static.ThroughputRPS
	}
	return out, retained
}

// findRun returns the run with the given name, or nil.
func findRun(runs []loadgen.Report, name string) *loadgen.Report {
	for i := range runs {
		if runs[i].Name == name {
			return &runs[i]
		}
	}
	return nil
}

// compareScaleout derives single-vs-sharded comparisons from the runs
// named "static"/"sharded" (route latencies + throughput ratio) and
// "mutating"/"sharded-mutating" (throughput ratio only — churn-pair
// route latencies already live in Comparisons for the single process).
func compareScaleout(runs []loadgen.Report) ([]ScaleoutComparison, float64, float64) {
	var cmps []ScaleoutComparison
	scaleout := 0.0
	single, sharded := findRun(runs, "static"), findRun(runs, "sharded")
	if single != nil && sharded != nil {
		var routes []string
		for name, rr := range single.Routes {
			if name != "healthz" && rr.Count > 0 && sharded.Routes[name].Count > 0 {
				routes = append(routes, name)
			}
		}
		sort.Strings(routes)
		for _, name := range routes {
			s, g := single.Routes[name], sharded.Routes[name]
			c := ScaleoutComparison{
				Route:       name,
				SingleP50Ms: s.Latency.P50Ms,
				ShardedP50M: g.Latency.P50Ms,
				SingleP99Ms: s.Latency.P99Ms,
				ShardedP99M: g.Latency.P99Ms,
			}
			if s.Latency.P99Ms > 0 {
				c.P99Ratio = g.Latency.P99Ms / s.Latency.P99Ms
			}
			cmps = append(cmps, c)
		}
		if single.ThroughputRPS > 0 {
			scaleout = sharded.ThroughputRPS / single.ThroughputRPS
		}
	}
	mutScaleout := 0.0
	mut, shardedMut := findRun(runs, "mutating"), findRun(runs, "sharded-mutating")
	if mut != nil && shardedMut != nil && mut.ThroughputRPS > 0 {
		mutScaleout = shardedMut.ThroughputRPS / mut.ThroughputRPS
	}
	return cmps, scaleout, mutScaleout
}

// serveMode folds loadgen run records from stdin into a ServeReport,
// keeping runs already present in the out file.
func serveMode(outPath string) {
	var runs []loadgen.Report
	if outPath != "" {
		if data, err := os.ReadFile(outPath); err == nil {
			var prev ServeReport
			if err := json.Unmarshal(data, &prev); err != nil {
				log.Fatalf("benchjson -serve: existing %s is not a serve report: %v", outPath, err)
			}
			runs = prev.Runs
		}
	}
	dec := json.NewDecoder(os.Stdin)
	n := 0
	for {
		var r loadgen.Report
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			log.Fatalf("benchjson -serve: decoding run record %d: %v", n+1, err)
		}
		if r.Name == "" {
			log.Fatalf("benchjson -serve: run record %d has no name", n+1)
		}
		runs = upsertRun(runs, r)
		n++
	}
	if n == 0 {
		log.Fatal("benchjson -serve: no loadgen run records on stdin")
	}
	rep := ServeReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Runs:      runs,
	}
	rep.Comparisons, rep.ThroughputRetained = compareServe(runs)
	rep.ShardComparisons, rep.ShardScaleout, rep.ShardMutatingScaleout = compareScaleout(runs)
	writeOut(outPath, rep)
	for _, c := range rep.Comparisons {
		fmt.Fprintf(os.Stderr, "%s: p99 %.3gms -> %.3gms under churn (%.2fx)\n",
			c.Route, c.StaticP99Ms, c.MutatingP99Ms, c.P99Ratio)
	}
	if rep.ThroughputRetained > 0 {
		fmt.Fprintf(os.Stderr, "throughput retained under churn: %.2f\n", rep.ThroughputRetained)
	}
	for _, c := range rep.ShardComparisons {
		fmt.Fprintf(os.Stderr, "%s: p99 %.3gms single -> %.3gms sharded (%.2fx)\n",
			c.Route, c.SingleP99Ms, c.ShardedP99M, c.P99Ratio)
	}
	if rep.ShardScaleout > 0 {
		fmt.Fprintf(os.Stderr, "sharded throughput scaleout: %.2fx static (%.2fx mutating) on %d CPUs\n",
			rep.ShardScaleout, rep.ShardMutatingScaleout, rep.CPUs)
	}
}

// writeOut marshals v to the out file, or stdout when out is empty.
func writeOut(out string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	serve := flag.Bool("serve", false, "stdin holds loadgen JSON run records instead of go test -bench output")
	flag.Parse()
	if *serve {
		serveMode(*out)
		return
	}

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	benches, cpu := parse(lines)
	if len(benches) == 0 {
		log.Fatal("benchjson: no benchmark lines on stdin")
	}
	report := Report{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		CPU:         cpu,
		Benchmarks:  benches,
		Comparisons: compare(benches),
	}
	writeOut(*out, report)
	for _, c := range report.Comparisons {
		fmt.Fprintf(os.Stderr, "%s: %.3gms -> %.3gms (%.2fx)\n",
			c.Name, c.BaselineNsPerOp/1e6, c.AfterNsPerOp/1e6, c.Speedup)
	}
}
