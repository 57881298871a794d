package main

import (
	"math"
	"time"
)

// The reference box is a few cores of a shared host, and for minutes at a
// time a neighbour takes a share of them: a fixed piece of arithmetic then
// runs in 100–130 µs, not 60, in stretches of seconds or in every other
// sample, with no steal time to show for it, and every timing of a run
// moves by 0.2–0.4 — more than any bound the driver admits. So each client
// times that fixed piece of arithmetic between its ops, every yardEvery,
// for as long as the window lasts, and the run's timings are reported as
// they would have read at the pace of the run's own undisturbed samples
// (see boxSlowdown and undisturbed). The yardstick is this file's own
// code: nothing a change to the program can make faster.

const (
	yardEvery = 25 * time.Millisecond
	// The serving stack slows by less than the yardstick does, which lives
	// in registers and the first-level cache: over 99 runs of serve_static
	// and serve_churn across two slow spells, timings followed the
	// yardstick's slowdown to the power 0.80–0.90, and dividing by that
	// took the run-to-run spread from 0.11–0.12 to 0.035–0.05.
	yardGamma   = 0.85
	yardSamples = 40 // fewer samples than this say nothing
)

// yardData is what the yardstick scores: 1024 items of five features.
var yardData = func() []float64 {
	d := make([]float64, 1024*stackFeatures)
	x := uint64(88172645463325252)
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = float64(x%10000) / 10000
	}
	return d
}()

var yardSink float64

// yardOnce scores yardData under 24 weight vectors, keeping the best eight
// of each pass, and returns how long that took: ≈ 60 µs undisturbed.
func yardOnce() time.Duration {
	t0 := time.Now()
	var best [8]float64
	for pass := 0; pass < 24; pass++ {
		w := [stackFeatures]float64{0.1 + float64(pass)*0.01, 0.3, -0.2, 0.5, 0.05 * float64(pass)}
		for i := 0; i+stackFeatures <= len(yardData); i += stackFeatures {
			s := w[0]*yardData[i] + w[1]*yardData[i+1] + w[2]*yardData[i+2] + w[3]*yardData[i+3] + w[4]*yardData[i+4]
			if s > best[7] {
				j := 7
				for j > 0 && best[j-1] < s {
					best[j] = best[j-1]
					j--
				}
				best[j] = s
			}
		}
	}
	yardSink += best[0]
	return time.Since(t0)
}

// yardstick is one client's samples.
type yardstick struct {
	last time.Time
	us   []float64
}

// tick takes a sample if yardEvery has passed since the client's last one.
func (y *yardstick) tick() {
	if now := time.Now(); now.Sub(y.last) >= yardEvery {
		y.last = now
		y.us = append(y.us, float64(yardOnce())/float64(time.Microsecond))
	}
}

// boxSlowdown is how much slower than undisturbed the box ran over a
// window: the mean of the samples over their 2nd percentile, which is the
// undisturbed pace as long as one sample in fifty met it. The slowest
// twentieth is left out of the mean: a sample that was descheduled
// mid-way reads milliseconds.
func boxSlowdown(us []float64) float64 {
	if len(us) < yardSamples {
		return 1
	}
	asc := sorted(us)
	return max(1, mean(asc[:len(asc)*19/20])/asc[len(asc)/50])
}

// undisturbed is the factor a window's durations are divided by, and its
// rates multiplied by, to read as on the undisturbed box.
func undisturbed(us []float64) float64 {
	return math.Pow(boxSlowdown(us), yardGamma)
}
