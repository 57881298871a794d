// Package gaussmix implements diagonal-covariance Gaussian mixture models:
// log-density evaluation, sampling and default priors.
//
// The paper models the uncertainty over the utility weight vector w as a
// mixture of Gaussians (§2.1), which can approximate any density. The
// posterior under preference feedback has no closed form; rather than
// refit the mixture after every feedback (the costly EM baseline §3.1
// rejects), the system keeps the prior fixed and samples it under the
// elicited constraints.
package gaussmix

import (
	"fmt"
	"math"
	"math/rand"
)

// Component is one mixture component with diagonal covariance.
type Component struct {
	// Weight is the non-negative mixing proportion; a mixture's weights sum
	// to one.
	Weight float64
	// Mean is the component mean.
	Mean []float64
	// Std holds the per-dimension standard deviations (all positive).
	Std []float64
}

// Mixture is a Gaussian mixture distribution over R^d.
type Mixture struct {
	Components []Component
	dims       int
}

// New validates the components and returns the mixture. Weights are
// normalized to sum to one.
func New(components ...Component) (*Mixture, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("gaussmix: mixture needs at least one component")
	}
	d := len(components[0].Mean)
	total := 0.0
	for i, c := range components {
		if len(c.Mean) != d || len(c.Std) != d {
			return nil, fmt.Errorf("gaussmix: component %d has inconsistent dims", i)
		}
		if c.Weight < 0 {
			return nil, fmt.Errorf("gaussmix: component %d has negative weight", i)
		}
		for j, s := range c.Std {
			if s <= 0 {
				return nil, fmt.Errorf("gaussmix: component %d std[%d]=%g must be positive", i, j, s)
			}
		}
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("gaussmix: weights sum to %g, want positive", total)
	}
	cp := make([]Component, len(components))
	for i, c := range components {
		cp[i] = Component{
			Weight: c.Weight / total,
			Mean:   append([]float64(nil), c.Mean...),
			Std:    append([]float64(nil), c.Std...),
		}
	}
	return &Mixture{Components: cp, dims: d}, nil
}

// Dims returns the dimensionality of the mixture.
func (m *Mixture) Dims() int { return m.dims }

// DefaultPrior returns the system-default prior used before any feedback: k
// components with means spread uniformly at random in [-1,1]^dims, std 0.5,
// equal weights. With k=1 the mean is the origin (total ignorance).
func DefaultPrior(dims, k int, rng *rand.Rand) *Mixture {
	if k < 1 {
		k = 1
	}
	comps := make([]Component, k)
	for i := 0; i < k; i++ {
		mean := make([]float64, dims)
		if i > 0 || k > 1 {
			for j := range mean {
				mean[j] = rng.Float64()*2 - 1
			}
		}
		std := make([]float64, dims)
		for j := range std {
			std[j] = 0.5
		}
		comps[i] = Component{Weight: 1, Mean: mean, Std: std}
	}
	m, err := New(comps...)
	if err != nil {
		panic(err) // unreachable: construction above is always valid
	}
	return m
}

const log2Pi = 1.8378770664093453 // ln(2π)

// LogPDF returns the log density at x.
func (m *Mixture) LogPDF(x []float64) float64 {
	// log-sum-exp over components for numerical stability.
	maxLog := math.Inf(-1)
	logs := make([]float64, len(m.Components))
	for i := range m.Components {
		c := &m.Components[i]
		l := math.Log(c.Weight) + logGauss(x, c.Mean, c.Std)
		logs[i] = l
		if l > maxLog {
			maxLog = l
		}
	}
	if math.IsInf(maxLog, -1) {
		return math.Inf(-1)
	}
	s := 0.0
	for _, l := range logs {
		s += math.Exp(l - maxLog)
	}
	return maxLog + math.Log(s)
}

func logGauss(x, mean, std []float64) float64 {
	l := 0.0
	for j := range x {
		z := (x[j] - mean[j]) / std[j]
		l += -0.5*z*z - math.Log(std[j]) - 0.5*log2Pi
	}
	return l
}

// Sample draws one vector from the mixture.
func (m *Mixture) Sample(rng *rand.Rand) []float64 {
	x := make([]float64, m.dims)
	m.SampleInto(rng, x)
	return x
}

// SampleInto draws one vector into dst (length Dims).
func (m *Mixture) SampleInto(rng *rand.Rand, dst []float64) {
	c := &m.Components[m.pick(rng)]
	for j := range dst {
		dst[j] = c.Mean[j] + rng.NormFloat64()*c.Std[j]
	}
}

func (m *Mixture) pick(rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i := range m.Components {
		acc += m.Components[i].Weight
		if u <= acc {
			return i
		}
	}
	return len(m.Components) - 1
}

// Gaussian returns a single-component mixture with the given mean and
// isotropic standard deviation; it is the proposal distribution used by
// importance sampling (§3.2.1).
func Gaussian(mean []float64, std float64) *Mixture {
	stds := make([]float64, len(mean))
	for i := range stds {
		stds[i] = std
	}
	m, err := New(Component{Weight: 1, Mean: append([]float64(nil), mean...), Std: stds})
	if err != nil {
		panic(err) // unreachable for std > 0
	}
	return m
}
