package gaussmix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pdf is the density at x, exp of the log density the samplers use.
func pdf(m *Mixture, x []float64) float64 { return math.Exp(m.LogPDF(x)) }

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := New(Component{Weight: 1, Mean: []float64{0}, Std: []float64{0}}); err == nil {
		t.Error("zero std accepted")
	}
	if _, err := New(Component{Weight: -1, Mean: []float64{0}, Std: []float64{1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New(
		Component{Weight: 1, Mean: []float64{0}, Std: []float64{1}},
		Component{Weight: 1, Mean: []float64{0, 0}, Std: []float64{1, 1}},
	); err == nil {
		t.Error("inconsistent dims accepted")
	}
}

func TestWeightsNormalized(t *testing.T) {
	m, err := New(
		Component{Weight: 2, Mean: []float64{0}, Std: []float64{1}},
		Component{Weight: 6, Mean: []float64{1}, Std: []float64{1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Components[0].Weight-0.25) > 1e-12 || math.Abs(m.Components[1].Weight-0.75) > 1e-12 {
		t.Errorf("weights not normalized: %v, %v", m.Components[0].Weight, m.Components[1].Weight)
	}
}

// TestPDFMatchesStandardNormal: a single standard Gaussian's density at 0
// is (2π)^{-d/2}.
func TestPDFMatchesStandardNormal(t *testing.T) {
	for d := 1; d <= 4; d++ {
		mean := make([]float64, d)
		m := Gaussian(mean, 1)
		want := math.Pow(2*math.Pi, -float64(d)/2)
		if got := pdf(m, mean); math.Abs(got-want) > 1e-12 {
			t.Errorf("d=%d: PDF(0) = %g, want %g", d, got, want)
		}
	}
}

func TestPDFUnivariateValues(t *testing.T) {
	m := Gaussian([]float64{2}, 3)
	// N(2, 3^2) at x = 5: exp(-0.5) / (3*sqrt(2*pi)).
	want := math.Exp(-0.5) / (3 * math.Sqrt(2*math.Pi))
	if got := pdf(m, []float64{5}); math.Abs(got-want) > 1e-12 {
		t.Errorf("PDF(5) = %g, want %g", got, want)
	}
}

// TestMixturePDFIsConvexCombination: mixture density = Σ w_c N_c.
func TestMixturePDFIsConvexCombination(t *testing.T) {
	a := Gaussian([]float64{-1, 0}, 0.5)
	b := Gaussian([]float64{1, 1}, 1.5)
	m, err := New(
		Component{Weight: 0.3, Mean: a.Components[0].Mean, Std: a.Components[0].Std},
		Component{Weight: 0.7, Mean: b.Components[0].Mean, Std: b.Components[0].Std},
	)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.2, -0.4}
	want := 0.3*pdf(a, x) + 0.7*pdf(b, x)
	if got := pdf(m, x); math.Abs(got-want) > 1e-12 {
		t.Errorf("mixture PDF = %g, want %g", got, want)
	}
}

func TestSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := Gaussian([]float64{1, -2}, 0.5)
	n := 20000
	sum := make([]float64, 2)
	sumSq := make([]float64, 2)
	for i := 0; i < n; i++ {
		x := m.Sample(rng)
		for j := range x {
			sum[j] += x[j]
			sumSq[j] += x[j] * x[j]
		}
	}
	for j, want := range []float64{1, -2} {
		mean := sum[j] / float64(n)
		if math.Abs(mean-want) > 0.02 {
			t.Errorf("dim %d sample mean = %g, want %g", j, mean, want)
		}
		variance := sumSq[j]/float64(n) - mean*mean
		if math.Abs(variance-0.25) > 0.02 {
			t.Errorf("dim %d sample var = %g, want 0.25", j, variance)
		}
	}
}

func TestSampleComponentProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := New(
		Component{Weight: 0.2, Mean: []float64{-10}, Std: []float64{0.1}},
		Component{Weight: 0.8, Mean: []float64{10}, Std: []float64{0.1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 10000
	right := 0
	for i := 0; i < n; i++ {
		if m.Sample(rng)[0] > 0 {
			right++
		}
	}
	frac := float64(right) / float64(n)
	if math.Abs(frac-0.8) > 0.02 {
		t.Errorf("component proportion = %g, want 0.8", frac)
	}
}

func TestDefaultPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := DefaultPrior(3, 1, rng)
	if m.Dims() != 3 || len(m.Components) != 1 {
		t.Fatalf("DefaultPrior shape wrong: %d dims, %d comps", m.Dims(), len(m.Components))
	}
	for _, v := range m.Components[0].Mean {
		if v != 0 {
			t.Error("single-component default prior should be centered at origin")
		}
	}
	m5 := DefaultPrior(2, 5, rng)
	if len(m5.Components) != 5 {
		t.Errorf("components = %d, want 5", len(m5.Components))
	}
	total := 0.0
	for _, c := range m5.Components {
		total += c.Weight
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("weights sum to %g", total)
	}
	if m0 := DefaultPrior(2, 0, rng); len(m0.Components) != 1 {
		t.Error("k<1 should clamp to 1")
	}
}

// Property: LogPDF is finite for bounded inputs and PDF is non-negative.
func TestPDFProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := DefaultPrior(3, 3, rng)
	f := func(a, b, c float64) bool {
		x := []float64{math.Mod(a, 3), math.Mod(b, 3), math.Mod(c, 3)}
		for i := range x {
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
		}
		p := pdf(m, x)
		return p >= 0 && !math.IsNaN(p) && !math.IsInf(m.LogPDF(x), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSampleInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := Gaussian([]float64{0, 0}, 1)
	buf := make([]float64, 2)
	m.SampleInto(rng, buf)
	if buf[0] == 0 && buf[1] == 0 {
		t.Error("SampleInto left buffer untouched")
	}
}
