package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"toppkg/internal/feature"
)

// Common stack (every workload): what cmd/serve ships, at the paper's
// small interactive sizes.
const (
	stackFeatures = 5
	stackPhi      = 3
	stackK        = 3
	stackSamples  = 30
	stackPsi      = 0.9
	searchQueue   = 128
	searchAccess  = 500

	episodeMinOps = 8
	episodeMaxOps = 20

	churnInterval = 50 * time.Millisecond
	churnBatch    = 8
	churnSlots    = 16 // rotating extra stable IDs above the base range

	// Open loop: an arrival still unsent this long after due is shed. The
	// issue's 1 s is within reach of the reference box's own stalls (one of
	// 1.9 s in twenty serve_hot runs), and a shed op is a failed op that a
	// later change would be blamed for.
	shedAfter = 3 * time.Second

	qualityUsers  = 32
	qualityRounds = 8
	qualityRandom = 1000

	setupRepeats    = 5 // set-ups per run at least; setup_s is their median (see setupTime)
	setupMaxRepeats = 40
	setupBudget     = time.Second
	// Yardstick samples before each set-up (4 ms), and the power of the
	// box's slowdown a set-up follows (see setupTime).
	setupYardSamples = 64
	setupGamma       = 0.5
	replayOps        = 400 // traced run: ops replayed per pass (fewer when the time budget ends first)
)

// connections is C: the generator never opens more.
func connections() int { return min(runtime.NumCPU(), 4) }

// workload is one frozen traffic mix over one frozen data shape.
type workload struct {
	name       string
	dataset    string // dataset.Generate kind
	items      int
	quickItems int // item count under -quick
	aggs       []feature.Agg
	// priorMean > 0 selects gaussmix.Gaussian(priorMean, priorStd): every
	// weight positive, so utilities are monotone and heads + sketch-refine
	// engage. 0 keeps the default origin-centred prior (mixed signs).
	priorMean, priorStd float64
	quantum             float64
	population          int
	zipfS               float64
	mix                 [3]int // recommend:click:feedback
	churn               bool
	rate                float64       // > 0: open loop at this many arrivals per second
	limit               time.Duration // slo_share: a recommend answered within it meets the limit
}

func (w *workload) monotone() bool { return w.priorMean > 0 }

var (
	mixedAggs = []feature.Agg{feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum}
	monoAggs  = []feature.Agg{feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum}
)

// workloads are frozen: a later change compares against numbers measured
// with exactly these constants (see README.md for how each was calibrated).
var workloads = []workload{
	{name: "serve_static", dataset: "uni", items: 1000, quickItems: 1000, aggs: mixedAggs,
		quantum: 0.05, population: 100000, zipfS: 1.07, mix: [3]int{6, 3, 1}, limit: 85 * time.Millisecond},
	{name: "serve_churn", dataset: "uni", items: 1000, quickItems: 1000, aggs: mixedAggs,
		quantum: 0.05, population: 100000, zipfS: 1.07, mix: [3]int{6, 3, 1}, churn: true, limit: 90 * time.Millisecond},
	{name: "serve_hot", dataset: "uni", items: 1000, quickItems: 1000, aggs: mixedAggs,
		quantum: 0.05, population: 500, zipfS: 1.07, mix: [3]int{8, 1, 1}, rate: 80, limit: 70 * time.Millisecond},
	{name: "large_uni", dataset: "uni", items: 100000, quickItems: 5000, aggs: monoAggs,
		priorMean: 0.5, priorStd: 0.15, population: 5000, zipfS: 1.07, mix: [3]int{6, 3, 1}, limit: 150 * time.Millisecond},
	{name: "large_cor", dataset: "cor", items: 100000, quickItems: 5000, aggs: monoAggs,
		priorMean: 0.5, priorStd: 0.15, population: 5000, zipfS: 1.07, mix: [3]int{6, 3, 1}, limit: 55 * time.Millisecond},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// floors are the absolute parts of the regression bounds: -compare calls a
// metric worse only when it moved by more than max(bound × base, floor).
// BENCHMARK.json's schema has room for the relative part alone.
var floors = map[string]float64{
	"setup_s":        0.05,
	"login_p50_ms":   0.05,
	"login_p95_ms":   0.05,
	"next_p50_ms":    0.05,
	"next_p95_ms":    0.05,
	"refresh_p50_ms": 0.05,
	"click_p50_ms":   0.05,
	"slo_share":      0.01,
	"elicit_quality": 0.03,
}

// watched are the user-visible timings demoted to per-layer metrics
// because ten runs of one commit spread wider than the driver's largest
// bound on the reference box. -compare still judges them — paired,
// alternating runs resolve what one side's runs alone cannot — at this
// relative bound and their floor, without failing the comparison.
var watched = map[string]float64{
	"login_p95_ms":           0.1,
	"next_p50_ms":            0.1,
	"next_p95_ms":            0.1,
	"refresh_p50_ms":         0.1,
	"click_p50_ms":           0.1,
	"catalog.visible_p50_ms": 0.1,
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
