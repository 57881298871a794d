// Package sampling implements the paper's constrained sampling framework
// (§3): drawing weight vectors from the Gaussian-mixture prior restricted to
// the convex region consistent with all elicited preferences. Three
// strategies are provided — rejection sampling (§3.1), importance sampling
// with a polytope center approximated on the flat grid of Figure 3b
// (§3.2.1), and Metropolis–Hastings MCMC (§3.2.2), which serving uses — plus
// the effective-number-of-samples diagnostic and the noisy-feedback model of
// §7. Each strategy runs at one fixed tuning (the constants below); only
// MCMC's initial-state budget is settable.
package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"toppkg/internal/gaussmix"
	"toppkg/internal/prefgraph"
)

// Sample is one weight vector with its importance weight. Rejection and
// MCMC samples carry weight 1; importance samples carry P(w)/Q(w).
type Sample struct {
	W []float64
	Q float64
}

// Result reports a sampling run: the accepted samples and how many raw
// draws (attempts) were needed, the paper's measure of sampler efficiency.
type Result struct {
	Samples  []Sample
	Attempts int
}

// Acceptance returns the fraction of attempts that produced a sample.
func (r Result) Acceptance() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(len(r.Samples)) / float64(r.Attempts)
}

// Sampler generates weight-vector samples consistent with user feedback.
type Sampler interface {
	// Name identifies the strategy ("rejection", "importance", "mcmc").
	Name() string
	// Sample draws n valid samples. Implementations must be deterministic
	// given rng's state.
	Sample(rng *rand.Rand, n int) (Result, error)
}

// The samplers' fixed tuning.
const (
	// maxAttemptsPerSample bounds the raw draws per accepted sample of the
	// rejection and importance samplers.
	maxAttemptsPerSample = 200000
	// gridRes is the importance grid's cell count per dimension; the grid
	// has gridRes^d cells.
	gridRes = 4
	// maxGridDims guards the exponential grid: center-finding refuses
	// d > maxGridDims (§5.3).
	maxGridDims = 6
	// proposalStd is the isotropic std of the importance proposal.
	proposalStd = 0.35
	// mcmcStep is the maximum step length of the MCMC random walk.
	mcmcStep = 0.25
	// mcmcThin keeps one MCMC state every mcmcThin steps to reduce
	// autocorrelation (the paper's step length δ). There is no burn-in: a
	// start found by rejection from the prior is already an exact draw from
	// the target, and a start that came from repairToValid is not burned in
	// either.
	mcmcThin = 5
)

// ErrTooManyRejections is returned when a sampler's attempt budget is
// exhausted before n valid samples were found (the valid region has
// negligible prior mass).
var ErrTooManyRejections = errors.New("sampling: attempt budget exhausted")

// Validator checks weight vectors against the feedback constraint set and
// the weight box [-1,1]^d. The optional noise model (Psi < 1) implements
// §7: each feedback is independently correct with probability Psi, so a
// vector violating x constraints is rejected only with probability
// 1−(1−Psi)^x.
type Validator struct {
	// Constraints is the feedback set, typically the transitive reduction
	// from prefgraph (paper §3.3).
	Constraints []prefgraph.Constraint
	// Dims is the weight dimensionality.
	Dims int
	// Psi is the probability any single feedback is correct; 1 (or 0,
	// treated as "noise-free") means deterministic rejection.
	Psi float64
}

// NewValidator builds a deterministic validator over the given constraints.
func NewValidator(dims int, cs []prefgraph.Constraint) *Validator {
	return &Validator{Constraints: cs, Dims: dims, Psi: 1}
}

// InBox reports whether w lies in the weight box [-1,1]^d (NaN does not).
func (v *Validator) InBox(w []float64) bool {
	for _, x := range w {
		if !(x >= -1 && x <= 1) {
			return false
		}
	}
	return true
}

// Violations counts the constraints w violates (box excluded).
func (v *Validator) Violations(w []float64) int {
	x := 0
	for i := range v.Constraints {
		if v.Constraints[i].Violates(w) {
			x++
		}
	}
	return x
}

// Valid reports whether w is accepted. Outside the box is always invalid.
// With the noise-free model, any constraint violation rejects; otherwise w
// is rejected with probability 1−(1−Psi)^x where x is its violation count,
// using rng (which must be non-nil when Psi < 1).
func (v *Validator) Valid(w []float64, rng *rand.Rand) bool {
	if !v.InBox(w) {
		return false
	}
	if v.Psi >= 1 || v.Psi <= 0 {
		for i := range v.Constraints {
			if v.Constraints[i].Violates(w) {
				return false
			}
		}
		return true
	}
	x := v.Violations(w)
	if x == 0 {
		return true
	}
	pReject := 1 - math.Pow(1-v.Psi, float64(x))
	return rng.Float64() >= pReject
}

// Rejection is the simple rejection sampler of §3.1: draw from the prior,
// discard anything violating feedback. Correct by Lemma 1 but wasteful as
// feedback accumulates.
type Rejection struct {
	Prior *gaussmix.Mixture
	V     *Validator
}

// Name implements Sampler.
func (r *Rejection) Name() string { return "rejection" }

// Sample implements Sampler.
func (r *Rejection) Sample(rng *rand.Rand, n int) (Result, error) {
	budget := maxAttemptsPerSample * n
	res := Result{Samples: make([]Sample, 0, n)}
	w := make([]float64, r.Prior.Dims())
	for len(res.Samples) < n {
		if res.Attempts >= budget {
			return res, fmt.Errorf("%w: rejection sampler accepted %d/%d after %d attempts",
				ErrTooManyRejections, len(res.Samples), n, res.Attempts)
		}
		r.Prior.SampleInto(rng, w)
		res.Attempts++
		if r.V.Valid(w, rng) {
			res.Samples = append(res.Samples, Sample{W: append([]float64(nil), w...), Q: 1})
		}
	}
	return res, nil
}

// Importance is the feedback-aware importance sampler of §3.2.1. It
// approximates the center of the valid convex polytope by the mean of the
// centers of grid cells that can intersect it, proposes from an isotropic
// Gaussian at that center, and corrects the bias of each accepted sample
// with the importance weight q(w) = P(w)/Q(w).
type Importance struct {
	Prior *gaussmix.Mixture
	V     *Validator
}

// Name implements Sampler.
func (s *Importance) Name() string { return "importance" }

// ErrDimsTooHigh is returned when importance sampling is asked to build a
// grid in too many dimensions (the paper excludes it beyond 5 features for
// this reason).
var ErrDimsTooHigh = errors.New("sampling: importance sampling grid is intractable at this dimensionality")

// center computes the approximate center of the valid region.
func (s *Importance) center() ([]float64, error) {
	d := s.Prior.Dims()
	if d > maxGridDims {
		return nil, fmt.Errorf("%w: %d dims > limit %d", ErrDimsTooHigh, d, maxGridDims)
	}
	return gridCenter(d, s.V.Constraints)
}

// Sample implements Sampler.
func (s *Importance) Sample(rng *rand.Rand, n int) (Result, error) {
	center, err := s.center()
	if err != nil {
		return Result{}, err
	}
	proposal := gaussmix.Gaussian(center, proposalStd)
	budget := maxAttemptsPerSample * n
	res := Result{Samples: make([]Sample, 0, n)}
	w := make([]float64, s.Prior.Dims())
	for len(res.Samples) < n {
		if res.Attempts >= budget {
			return res, fmt.Errorf("%w: importance sampler accepted %d/%d after %d attempts",
				ErrTooManyRejections, len(res.Samples), n, res.Attempts)
		}
		proposal.SampleInto(rng, w)
		res.Attempts++
		if !s.V.Valid(w, rng) {
			continue
		}
		q := math.Exp(s.Prior.LogPDF(w) - proposal.LogPDF(w))
		res.Samples = append(res.Samples, Sample{W: append([]float64(nil), w...), Q: q})
	}
	return res, nil
}

// MCMC is the Metropolis–Hastings sampler of §3.2.2: a random walk inside
// the valid region with a symmetric bounded-step proposal, whose stationary
// distribution is the prior restricted to the valid region.
type MCMC struct {
	Prior *gaussmix.Mixture
	V     *Validator
	// InitAttempts bounds the rejection draws used to find the first valid
	// state (default 200000).
	InitAttempts int
}

// Name implements Sampler.
func (m *MCMC) Name() string { return "mcmc" }

// Sample implements Sampler.
func (m *MCMC) Sample(rng *rand.Rand, n int) (Result, error) {
	initA := m.InitAttempts
	if initA <= 0 {
		initA = 200000
	}
	d := m.Prior.Dims()
	res := Result{Samples: make([]Sample, 0, n)}

	// Find the first valid state by rejection from the prior (§5.1),
	// falling back to constraint repair when the valid region is too small
	// to hit by luck (high dimensionality and/or heavy feedback): starting
	// from the least-violating draw, project onto violated half-spaces
	// (perceptron-style) until valid — the region is a convex cone
	// (Lemma 2), so the projections converge whenever it has an interior.
	cur := make([]float64, d)
	best := make([]float64, d)
	bestViol := int(^uint(0) >> 1)
	found := false
	rejectionTries := initA / 10
	if rejectionTries < 1000 {
		rejectionTries = 1000
	}
	for i := 0; i < rejectionTries; i++ {
		m.Prior.SampleInto(rng, cur)
		res.Attempts++
		if m.V.Valid(cur, rng) {
			found = true
			break
		}
		if v := m.V.Violations(cur); v < bestViol && m.V.InBox(cur) {
			bestViol = v
			copy(best, cur)
		}
	}
	if !found {
		if bestViol == int(^uint(0)>>1) {
			// Every draw fell outside the box; restart from the origin.
			for j := range best {
				best[j] = 0
			}
		}
		copy(cur, best)
		found = repairToValid(cur, m.V, rng)
	}
	if !found {
		return res, fmt.Errorf("%w: mcmc found no valid initial state after %d attempts and repair",
			ErrTooManyRejections, rejectionTries)
	}
	curLog := m.Prior.LogPDF(cur)

	prop := make([]float64, d)
	steps := 0
	for len(res.Samples) < n {
		// Propose uniformly within the L2 ball of radius mcmcStep around
		// cur (symmetric, so the Hastings correction cancels, Eq. 7).
		uniformBall(rng, prop, mcmcStep)
		for j := range prop {
			prop[j] += cur[j]
		}
		res.Attempts++
		if m.V.Valid(prop, rng) {
			propLog := m.Prior.LogPDF(prop)
			if propLog >= curLog || rng.Float64() < math.Exp(propLog-curLog) {
				copy(cur, prop)
				curLog = propLog
			}
		}
		// On rejection we keep a copy of cur as the next chain state
		// (standard MH; paper §3.2.2).
		steps++
		if steps%mcmcThin == 0 {
			res.Samples = append(res.Samples, Sample{W: append([]float64(nil), cur...), Q: 1})
		}
	}
	return res, nil
}

// repairToValid iteratively projects w onto the half-spaces of violated
// constraints (with a small overshoot, clamped to the weight box) until it
// satisfies all of them. Returns false if no valid point was reached.
func repairToValid(w []float64, v *Validator, rng *rand.Rand) bool {
	const maxSteps = 20000
	for step := 0; step < maxSteps; step++ {
		var worst *prefgraph.Constraint
		worstMargin := 0.0
		for i := range v.Constraints {
			c := &v.Constraints[i]
			margin := 0.0
			for j, diff := range c.Diff {
				margin += diff * w[j]
			}
			if margin < worstMargin {
				worstMargin = margin
				worst = c
			}
		}
		if worst == nil {
			// All constraints hold; jitter slightly into the interior so the
			// chain does not start exactly on a face.
			return v.Valid(w, rng)
		}
		norm2 := 0.0
		for _, diff := range worst.Diff {
			norm2 += diff * diff
		}
		if norm2 == 0 {
			return false
		}
		// Project past the boundary by a small overshoot.
		scale := (-worstMargin/norm2)*1.1 + 1e-9
		for j, diff := range worst.Diff {
			w[j] += scale * diff
			if w[j] > 1 {
				w[j] = 1
			}
			if w[j] < -1 {
				w[j] = -1
			}
		}
	}
	return v.Valid(w, rng)
}

// uniformBall fills dst with a point uniform in the L2 ball of radius r.
func uniformBall(rng *rand.Rand, dst []float64, r float64) {
	d := len(dst)
	norm := 0.0
	for i := range dst {
		dst[i] = rng.NormFloat64()
		norm += dst[i] * dst[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		norm = 1
	}
	scale := r * math.Pow(rng.Float64(), 1/float64(d)) / norm
	for i := range dst {
		dst[i] *= scale
	}
}

// ENS returns the effective number of samples (Kong, Liu & Wong [17]) of an
// importance-weighted pool: (Σq)² / Σq². It equals len(samples) when all
// weights are equal and shrinks as weights become imbalanced.
func ENS(samples []Sample) float64 {
	var sum, sumSq float64
	for i := range samples {
		sum += samples[i].Q
		sumSq += samples[i].Q * samples[i].Q
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / sumSq
}

// Weights extracts the weight vectors of a sample pool (shared backing
// arrays, not copies).
func Weights(samples []Sample) [][]float64 {
	out := make([][]float64, len(samples))
	for i := range samples {
		out[i] = samples[i].W
	}
	return out
}
