package experiments

import (
	"fmt"
	"time"

	"toppkg/internal/gaussmix"
	"toppkg/internal/sampling"
)

// Fig4 reproduces Figure 4 (§5.1): how the three sampling methods generate
// 100 valid 2-dimensional samples given 5000 packages and 2 random
// preferences. The paper's figure is a scatter plot; the reproduction
// reports the quantitative content — how many raw draws each method spends
// (rejected crosses vs accepted dots), the acceptance rate, and the
// effective number of samples — plus an ASCII rendering of the accepted
// sample cloud per sampler.
func Fig4(p Params) ([]Table, error) {
	rng := p.rng(4)
	sp, err := buildSpace("uni", 1000, 2, 3, rng)
	if err != nil {
		return nil, err
	}
	w := hiddenW(2, rng)
	cs := preferenceWorkload(sp, 5000, 2, w, rng)
	v := sampling.NewValidator(2, cs)
	prior := gaussmix.DefaultPrior(2, 1, rng)

	const want = 100
	table := &Table{
		Title:  "Figure 4: generating 100 valid 2-D samples under 2 preferences",
		Header: []string{"sampler", "accepted", "raw draws", "acceptance", "ENS", "time_ms"},
		Notes:  "paper: rejection wastes many samples; importance and MCMC concentrate in the valid region",
	}
	scatter := &Table{
		Title:  "Figure 4 (render): accepted sample clouds",
		Header: []string{"sampler", "ascii (16x8 over [-1,1]^2, #=many, .=few)"},
	}
	for _, s := range []sampling.Sampler{
		&sampling.Rejection{Prior: prior, V: v},
		&sampling.Importance{Prior: prior, V: v},
		&sampling.MCMC{Prior: prior, V: v},
	} {
		start := time.Now()
		res, err := s.Sample(p.rng(40), want)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", s.Name(), err)
		}
		elapsed := time.Since(start).Seconds()
		table.Rows = append(table.Rows, cells(
			s.Name(), len(res.Samples), res.Attempts,
			fmt.Sprintf("%.3f", res.Acceptance()),
			fmt.Sprintf("%.1f", sampling.ENS(res.Samples)),
			ms(elapsed),
		))
		scatter.Rows = append(scatter.Rows, []string{s.Name(), asciiCloud(res.Samples)})
	}
	return []Table{*table, *scatter}, nil
}

// asciiCloud renders 2-D samples as a coarse density string, row-major from
// w2 = +1 (top) to −1, w1 from −1 to +1, rows joined by '/'.
func asciiCloud(samples []sampling.Sample) string {
	const cols, rows = 16, 8
	grid := make([]int, cols*rows)
	for _, s := range samples {
		x := int((s.W[0] + 1) / 2 * cols)
		y := int((1 - (s.W[1]+1)/2) * rows)
		if x < 0 {
			x = 0
		}
		if x >= cols {
			x = cols - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= rows {
			y = rows - 1
		}
		grid[y*cols+x]++
	}
	out := make([]byte, 0, (cols+1)*rows)
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			switch c := grid[y*cols+x]; {
			case c == 0:
				out = append(out, ' ')
			case c <= 2:
				out = append(out, '.')
			case c <= 5:
				out = append(out, 'o')
			default:
				out = append(out, '#')
			}
		}
		if y < rows-1 {
			out = append(out, '/')
		}
	}
	return string(out)
}
