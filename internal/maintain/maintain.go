// Package maintain implements sample maintenance (paper §3.4): when new
// feedback arrives, previously generated weight-vector samples that satisfy
// it are kept and only the violators are replaced, avoiding regeneration
// from scratch. Three violator-finding strategies are provided — the naive
// scan, the hybrid of Algorithm 1, which runs the threshold algorithm (TA)
// over per-dimension sorted sample lists and falls back to scanning once
// its projected cost exceeds (1+γ)·|S|, and pure TA, which is the hybrid
// at γ = +∞ (§5.5).
package maintain

import (
	"fmt"
	"math"

	"toppkg/internal/prefgraph"
	"toppkg/internal/sampling"
	"toppkg/internal/topk"
)

// Query converts a new feedback constraint into the violator query vector:
// a sample w violates winner ≻ loser iff w·(loser−winner) > 0, i.e.
// w·q > 0 with q = −Diff.
func Query(c prefgraph.Constraint) []float64 {
	q := make([]float64, len(c.Diff))
	for i, v := range c.Diff {
		q[i] = -v
	}
	return q
}

// Checker finds the samples violating a new feedback constraint. work is
// the number of sample examinations / sorted accesses performed — the
// cost measure Figure 7 compares.
type Checker interface {
	// Name identifies the strategy ("naive", "ta", "hybrid").
	Name() string
	// Violators returns the indices of pool vectors w with w·q > 0, in
	// unspecified order.
	Violators(q []float64) (idx []int, work int)
}

// Naive scans every sample (paper §3.4's simple idea). Effective when many
// samples violate the feedback; wasteful when few do.
type Naive struct{ P *topk.Pool }

// Name implements Checker.
func (n *Naive) Name() string { return "naive" }

// Violators implements Checker.
func (n *Naive) Violators(q []float64) ([]int, int) {
	var out []int
	for i := 0; i < n.P.Len(); i++ {
		if n.P.Dot(i, q) > 0 {
			out = append(out, i)
		}
	}
	return out, n.P.Len()
}

// TA finds violators with the threshold algorithm over sorted sample lists
// [13]: samples are drawn in descending possible score until the boundary
// value shows no unseen sample can score above zero. Very efficient when
// few samples violate; can cost more than a scan when many do. It is the
// hybrid that never falls back (γ = +∞).
type TA struct{ P *topk.Pool }

// Name implements Checker.
func (t *TA) Name() string { return "ta" }

// Violators implements Checker.
func (t *TA) Violators(q []float64) ([]int, int) {
	return (&Hybrid{P: t.P, Gamma: math.Inf(1)}).Violators(q)
}

// Hybrid is Algorithm 1: run TA, but once the accesses performed plus the
// entries remaining in the current list reach (1+Gamma)·|S|, stop the TA
// process and scan the remainder of the current list (which contains every
// unseen sample). Gamma tunes how long TA is allowed to run: small Gamma
// behaves like the naive scan, large Gamma like pure TA (§5.5).
type Hybrid struct {
	P *topk.Pool
	// Gamma is the overshoot tolerance γ (default 0.025, the sweet spot in
	// Figure 7b).
	Gamma float64
}

// Name implements Checker.
func (h *Hybrid) Name() string { return "hybrid" }

// Violators implements Checker.
func (h *Hybrid) Violators(q []float64) ([]int, int) {
	gamma := h.Gamma
	if gamma == 0 {
		gamma = 0.025
	}
	s := topk.NewScanner(h.P, q)
	if s == nil {
		return nil, 0
	}
	n := h.P.Len()
	limit := float64(n) * (1 + gamma)
	seen := make([]bool, n)
	var out []int
	fallbackChecks := 0
	for {
		i, ok := s.Next()
		if !ok {
			break
		}
		if !seen[i] {
			seen[i] = true
			if h.P.Dot(i, q) > 0 {
				out = append(out, i)
			}
		}
		if s.Threshold() <= 0 {
			break
		}
		if float64(s.Accesses()+s.CurrentRemaining()) >= limit {
			// Fallback (Algorithm 1 lines 9–10): check every sample left in
			// the current list; it contains all unseen samples.
			for _, j := range s.CurrentUnread() {
				if !seen[j] {
					seen[j] = true
					fallbackChecks++
					if h.P.Dot(int(j), q) > 0 {
						out = append(out, int(j))
					}
				}
			}
			break
		}
	}
	return out, s.Accesses() + fallbackChecks
}

// Pool owns a sample set and keeps it consistent with incoming feedback:
// violators found by the hybrid checker are replaced by fresh samples from
// the (already feedback-aware) sampler, per §3.4 — the retained samples
// still follow the prior restricted to the valid region, so only
// replacements must be drawn.
type Pool struct {
	Samples []sampling.Sample
	index   *topk.Pool
}

// NewPool wraps an initial sample set.
func NewPool(samples []sampling.Sample) *Pool {
	return &Pool{Samples: samples}
}

// Index returns the TA index over the current samples, building it if
// needed.
func (p *Pool) Index() *topk.Pool {
	if p.index == nil {
		p.index = topk.NewPool(sampling.Weights(p.Samples))
	}
	return p.index
}

// Invalidate drops the TA index (call after mutating Samples directly).
func (p *Pool) Invalidate() { p.index = nil }

// Apply finds the samples violating any constraint of cs — one checker
// pass per constraint, all over one index — replaces them with the n fresh
// samples one draw(n) returns, and returns the number replaced and the
// checker work. It calls draw only when some sample violates some
// constraint of cs: the samples that satisfy them all are kept as they are.
func (p *Pool) Apply(cs []prefgraph.Constraint, draw func(n int) (sampling.Result, error)) (replaced, work int, err error) {
	var viol []int
	seen := make([]bool, len(p.Samples))
	for _, c := range cs {
		idx, w := (&Hybrid{P: p.Index()}).Violators(Query(c))
		work += w
		for _, i := range idx {
			if !seen[i] {
				seen[i] = true
				viol = append(viol, i)
			}
		}
	}
	if len(viol) == 0 {
		return 0, work, nil
	}
	res, err := draw(len(viol))
	if err != nil {
		return 0, work, fmt.Errorf("maintain: replacing %d violators: %w", len(viol), err)
	}
	for i, vi := range viol {
		p.Samples[vi] = res.Samples[i]
	}
	p.Invalidate()
	return len(viol), work, nil
}
