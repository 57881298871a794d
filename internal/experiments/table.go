// Package experiments regenerates every figure of the paper's evaluation
// (§5) on this reproduction: sampler behaviour (Fig. 4), constraint-check
// pruning (Fig. 5), overall time performance (Fig. 6), sample quality
// (§5.4), sample maintenance (Fig. 7), and elicitation effectiveness
// (Fig. 8). Each experiment returns text tables that cmd/experiments
// prints. The root bench_test.go times one kernel per figure under
// testing.B at sizes of its own, not these workloads: BenchmarkFig6TopKPkg
// runs the default 512-wide beam with no access budget on 20k items, where
// Fig. 6 ranks under a 32-wide beam and a 100-item budget on a scaled 100k;
// BenchmarkFig7Maintenance draws its pool at std 0.3, where Fig. 7 uses
// 0.45.
//
// Absolute times differ from the paper (different hardware and language —
// the authors used Python); the reproduced quantity is the shape: which
// method wins, by what factor, and where behaviour changes.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment result table, printable as aligned text or CSV.
type Table struct {
	// Title names the experiment, e.g. "Figure 5(a): varying features".
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the cell values.
	Rows [][]string
	// Notes carries caveats (scale reductions, substitutions).
	Notes string
}

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "\n  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// cells formats a row from mixed values.
func cells(vs ...any) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case string:
			out[i] = x
		case int:
			out[i] = fmt.Sprintf("%d", x)
		case float64:
			out[i] = fmt.Sprintf("%.4g", x)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	return out
}

// ms formats a duration in seconds as milliseconds text.
func ms(seconds float64) string {
	return fmt.Sprintf("%.2f", seconds*1000)
}
