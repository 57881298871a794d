// Package sampling implements the paper's constrained sampling framework
// (§3): drawing weight vectors from the Gaussian-mixture prior restricted to
// the convex region consistent with all elicited preferences. Three
// strategies are provided — rejection sampling (§3.1), importance sampling
// with a polytope center approximated on the flat grid of Figure 3b
// (§3.2.1), and Metropolis–Hastings MCMC (§3.2.2) — plus the
// effective-number-of-samples diagnostic and the noisy-feedback model of §7.
// Each strategy runs at one fixed tuning (the constants below). Draw is what
// the engine samples with: exact rejection draws while they pay, the MCMC
// chain otherwise.
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
	// the target, and a start that came from repairToValid or an interior
	// point is not burned in either.
	mcmcThin = 5
)

// ErrTooManyRejections is returned when a sampler's attempt budget is
// exhausted before n valid samples were found (the valid region has
// negligible prior mass), and by MCMC under the noise-free model when the
// valid cone has no interior point.
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
	return v.accept(v.Violations(w), rng)
}

// soft reports whether the noise model is in force (0 < Psi < 1).
func (v *Validator) soft() bool { return v.Psi > 0 && v.Psi < 1 }

// accept is the noise model's verdict on an in-box vector violating x
// constraints: rejected with probability 1−(1−Psi)^x.
func (v *Validator) accept(x int, rng *rand.Rand) bool {
	if x == 0 {
		return true
	}
	if !v.soft() {
		return false
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
}

// Name implements Sampler.
func (m *MCMC) Name() string { return "mcmc" }

// Sample implements Sampler: the chain from the first state start finds.
func (m *MCMC) Sample(rng *rand.Rand, n int) (Result, error) {
	return m.sampleFrom(rng, nil, n)
}

// sampleFrom runs the chain for n samples from state w, a point of the
// box the target gives positive density; a nil w runs the initial-state
// search first.
func (m *MCMC) sampleFrom(rng *rand.Rand, w []float64, n int) (Result, error) {
	res := Result{Samples: make([]Sample, 0, n)}
	cur := make([]float64, m.Prior.Dims())
	if w == nil {
		if !m.start(rng, cur, &res) {
			return res, fmt.Errorf("%w: mcmc: the valid cone has no interior point", ErrTooManyRejections)
		}
	} else {
		copy(cur, w)
	}
	curLog := m.Prior.LogPDF(cur)

	prop := make([]float64, len(cur))
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

// start finds the chain's first state into cur, counting its prior draws
// in res. It first decides whether the valid cone has an interior point
// (interior); under the noise-free model a cone without one fails here,
// before any draw. Then it tries mcmcThin prior draws — the chain's cost
// of one sample — and an accepted one is an exact draw from the target.
// Failing that, it repairs the least-violating in-box draw by projection
// onto the violated half-spaces (repairToValid), whose iterates the noise
// model may accept on the way, and takes the interior point if the repair
// stalls or no draw fell in the box. Under noise a cone without an
// interior point still has a target, positive on the whole box, and the
// least-violating draw (or the origin, which violates nothing) is the
// start: the search then never fails.
func (m *MCMC) start(rng *rand.Rand, cur []float64, res *Result) bool {
	witness, feasible := interior(len(cur), m.V.Constraints)
	if !feasible && !m.V.soft() {
		return false
	}
	best := make([]float64, len(cur))
	bestViol := -1
	for i := 0; i < mcmcThin; i++ {
		m.Prior.SampleInto(rng, cur)
		res.Attempts++
		if m.V.Valid(cur, rng) {
			return true
		}
		if !m.V.InBox(cur) {
			continue
		}
		if v := m.V.Violations(cur); bestViol < 0 || v < bestViol {
			bestViol = v
			copy(best, cur)
		}
	}
	copy(cur, best)
	if feasible && (bestViol < 0 || !repairToValid(cur, m.V, rng)) {
		copy(cur, witness)
	}
	return true
}

// Draw is the engine's sampler. It draws i.i.d. from the prior and keeps
// what the validator accepts — exact by Lemma 1 (§3.1) — while that costs
// fewer attempts per sample than the chain's mcmcThin steps, and runs the
// §3.2.2 chain for the rest. The chain starts from the last accepted draw,
// an exact draw from the target, when there is one, and from MCMC's
// initial-state search otherwise.
func Draw(prior *gaussmix.Mixture, v *Validator, rng *rand.Rand, n int) (Result, error) {
	res := Result{Samples: make([]Sample, 0, n)}
	w := make([]float64, prior.Dims())
	for len(res.Samples) < n && res.Attempts < mcmcThin*(len(res.Samples)+1) {
		prior.SampleInto(rng, w)
		res.Attempts++
		if v.Valid(w, rng) {
			res.Samples = append(res.Samples, Sample{W: append([]float64(nil), w...), Q: 1})
		}
	}
	if len(res.Samples) == n {
		return res, nil
	}
	var start []float64
	if k := len(res.Samples); k > 0 {
		start = res.Samples[k-1].W
	}
	rest, err := (&MCMC{Prior: prior, V: v}).sampleFrom(rng, start, n-len(res.Samples))
	res.Samples = append(res.Samples, rest.Samples...)
	res.Attempts += rest.Attempts
	return res, err
}

// repairToValid iteratively projects w onto the half-spaces of violated
// constraints (with a small overshoot, clamped to the weight box) until v
// accepts it: once it violates nothing, or earlier when the noise model
// accepts an iterate. Returns false if no iterate was accepted.
func repairToValid(w []float64, v *Validator, rng *rand.Rand) bool {
	const maxSteps = 20000
	for step := 0; step < maxSteps; step++ {
		var worst *prefgraph.Constraint
		worstMargin := 0.0
		violated := 0
		for i := range v.Constraints {
			c := &v.Constraints[i]
			margin := 0.0
			for j, diff := range c.Diff {
				margin += diff * w[j]
			}
			if margin < 0 {
				violated++
			}
			if margin < worstMargin {
				worstMargin = margin
				worst = c
			}
		}
		if v.InBox(w) && (worst == nil || v.soft()) && v.accept(violated, rng) {
			return true
		}
		if worst == nil {
			return false // outside the box with nothing to project onto
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
