// Command bench is this repository's benchmark: five serving workloads
// driven over real HTTP against the in-process serving stack, end-to-end
// metrics a user of the system would see, per-layer probes, and a traced
// run that attributes slate latency to the repository's modules. See
// README.md and ../BENCHMARK.json.
//
//	bash bench/run.sh --workload serve_static --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh --workload large_cor --seed 1 --seconds 18 --trace 1 --spans spans.jsonl
//	bash bench/run.sh --compare base1.json base2.json -- new1.json new2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// result is one run as -out writes it and -compare reads it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Header    map[string]any    `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Claim is null by construction: the benchmark measures, it claims no
	// gain. A change that does states its claim in its own issue.
	Claim any `json:"claim"`
}

func main() {
	var (
		wlName   = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed: which session plays which popularity rank (rank sequence and datasets are frozen with the workloads)")
		seconds  = flag.Float64("seconds", 18, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		spans    = flag.String("spans", "", "traced run: write the spans to this file, one JSON object per line")
		outPath  = flag.String("out", "", "also write the run's result to this file (the input of -compare)")
		quick    = flag.Bool("quick", false, "smoke sizes: 1k/5k items, few quality users (numbers not comparable)")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration")
		rate     = flag.Float64("rate", -1, "calibration: override the workload's arrival rate (0: closed loop; numbers not comparable)")
		compare  = flag.Bool("compare", false, "compare result files: base.json... -- new.json...")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		os.Exit(compareMain(spec, flag.Args(), os.Stdout))
	}
	wl, err := findWorkload(*wlName)
	if err != nil {
		fatal(fmt.Errorf("%w (want one of %s)", err, workloadNames()))
	}
	if *rate >= 0 {
		recal := *wl
		recal.rate = *rate
		wl = &recal
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	cfg := newRunCfg(wl, *seed, *seconds, *quick)
	header := runHeader(cfg, *trace)
	printHeader(header)

	var out *outcome
	if *trace != 0 {
		out, err = runTraced(cfg, *spans)
	} else {
		out, err = runUntraced(cfg)
	}
	if err != nil {
		fatal(err)
	}
	declared := spec.EndToEnd
	if *trace != 0 {
		declared = spec.PerLayer
	}
	last, err := emit(os.Stdout, out, declared)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		raw, _ := json.MarshalIndent(result{Workload: wl.name, Seed: *seed, Trace: *trace, Header: header, Correct: out.correct,
			Attempted: out.attempted, Failed: out.failed, Problems: out.problems, Metrics: out.rep.m}, "", "  ")
		if err := os.WriteFile(*outPath, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Println(`# "claim": null`)
	fmt.Println(last)
	if !out.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return strings.Join(names, ", ")
}

// runHeader records what the numbers were measured on and with.
func runHeader(cfg runCfg, trace int) map[string]any {
	wl := cfg.wl
	return map[string]any{
		"commit":         commit(),
		"go":             runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"connections":    cfg.conns,
		"workload":       wl.name,
		"seed":           cfg.seed,
		"trace":          trace,
		"items":          cfg.items,
		"warmup_s":       cfg.warmup.Seconds(),
		"window_s":       cfg.window.Seconds(),
		"loop":           map[bool]string{true: "open", false: "closed"}[wl.rate > 0],
		"rate_ops_s":     wl.rate,
		"limit_ms":       float64(wl.limit) / float64(time.Millisecond),
		"population":     wl.population,
		"mix":            fmt.Sprintf("%d:%d:%d", wl.mix[0], wl.mix[1], wl.mix[2]),
		"op_stream_hash": fmt.Sprintf("%016x", opStreamHash(wl, cfg.seed, 2048)),
	}
}

func printHeader(h map[string]any) {
	raw, _ := json.Marshal(h) // map keys marshal sorted
	fmt.Printf("# %s\n", raw)
}

// commit reads the checked-out commit from .git without running git; the
// driver's checkout is not a repository, and says so.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return ref
}

// emit prints every metric by name with its unit and sample count, checks
// that the run produced exactly the declared metrics for its mode, and
// returns the result line the driver reads.
func emit(w io.Writer, out *outcome, declared []metricDecl) (string, error) {
	for _, name := range out.rep.names {
		m := out.rep.m[name]
		line := fmt.Sprintf("%-34s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(declared))
	for _, d := range declared {
		m, ok := out.rep.m[d.Name]
		if !ok {
			return "", fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = jm{m.Value, m.Unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct":   out.correct,
		"attempted": max(out.attempted, 1),
		"failed":    out.failed,
		"metrics":   metrics,
	})
	return string(raw), err
}
