package feature

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelCase is one random input of the kernel reference suite: a space, a
// utility with its plans, parent states of every size below φ, an item to
// grow them by and a set of pad descriptors.
type kernelCase struct {
	sp                 *Space
	u                  *Utility
	score              *ScorePlan
	pad                *PadPlan
	skipDims, listDims []int
	parents            []*State // parents[s] has size s, s = 0 … φ−1
	id                 int32
	modes              []uint8 // random, parallel to listDims
	allTau             []uint8 // PadTau throughout
	taus               []float64
}

// kernelValue draws from a palette that forces ties, exact zeros of both
// signs and (for nullable features) nulls, next to ordinary values.
func kernelValue(rng *rand.Rand, nullable bool) float64 {
	if nullable && rng.Intn(4) == 0 {
		return Null
	}
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0.25
	case 3, 4:
		return 0.5
	case 5:
		return 1
	}
	return rng.Float64()
}

func newKernelCase(rng *rand.Rand) *kernelCase {
	aggs := []Agg{AggNull, AggMin, AggMax, AggSum, AggAvg}
	m := 1 + rng.Intn(5)
	dims := 1 + rng.Intn(5)
	entries := make([]Entry, dims)
	for d := range entries {
		entries[d] = Entry{Feature: rng.Intn(m), Agg: aggs[rng.Intn(len(aggs))]}
	}
	nullable := make([]bool, m)
	for f := range nullable {
		nullable[f] = rng.Intn(3) == 0
	}
	phi := 1 + rng.Intn(5)
	items := make([]Item, phi+3)
	for i := range items {
		vals := make([]float64, m)
		for f := range vals {
			vals[f] = kernelValue(rng, nullable[f])
		}
		items[i] = Item{ID: i, Values: vals}
	}
	sp, err := NewSpace(items, MustProfile(m, entries...), phi)
	if err != nil {
		panic(err)
	}
	c := &kernelCase{sp: sp, id: int32(rng.Intn(len(items)))}
	w := make([]float64, dims)
	for d := range w {
		if rng.Intn(5) != 0 {
			w[d] = rng.Float64()*2 - 1
		}
		if w[d] == 0 {
			continue
		}
		// Like the search, a weighted dimension without a usable list is a
		// skip dimension; unlike it, ordinary dimensions land there too, so
		// skips carry real values and nulls.
		if entries[d].Agg == AggNull || rng.Intn(4) == 0 {
			c.skipDims = append(c.skipDims, d)
		} else {
			c.listDims = append(c.listDims, d)
		}
	}
	c.u, err = NewUtility(sp.Profile, w)
	if err != nil {
		panic(err)
	}
	c.score = NewScorePlan(sp, c.u)
	c.pad = NewPadPlan(sp, c.u, c.skipDims, c.listDims)
	for range c.listDims {
		c.modes = append(c.modes, uint8(rng.Intn(3)))
		c.allTau = append(c.allTau, PadTau)
		c.taus = append(c.taus, kernelValue(rng, false))
	}
	st := NewState(sp)
	for s := 0; s < phi; s++ {
		c.parents = append(c.parents, st.Clone())
		st.Add(items[rng.Intn(len(items))])
	}
	return c
}

// grown is the unfused reference for every grow kernel: Clone + Add.
func (c *kernelCase) grown(parent *State) *State {
	g := parent.Clone()
	g.Add(c.sp.Items[c.id])
	return g
}

// padReference is Algorithm 3 unfused: per round choose each list
// dimension's contribution by its mode (τ, null, or the better-scoring of
// the two with ties to τ), fold the imaginary item with AddContrib, and score
// the result dimension by dimension in the kernels' skips-then-lists order.
func (c *kernelCase) padReference(st *State, modes []uint8) float64 {
	st = st.Clone()
	term := func(d int, a float64) float64 { return c.u.W[d] * a / c.sp.Norm.Scale(d) }
	best := math.Inf(-1)
	for st.Size < c.sp.MaxSize {
		contribs := make([]Contrib, c.sp.Dims())
		for d := range contribs {
			contribs[d].Skip = true
		}
		for i, d := range c.listDims {
			tau, skip := Contrib{Value: c.taus[i]}, Contrib{Skip: true}
			switch modes[i] {
			case PadTau:
				contribs[d] = tau
			case PadTauOrSkip:
				if !(term(d, st.AggregateAfter(d, skip)) > term(d, st.AggregateAfter(d, tau))) {
					contribs[d] = tau
				}
			}
		}
		st.AddContrib(contribs)
		util := 0.0
		for _, d := range c.skipDims {
			util += term(d, st.Aggregate(d))
		}
		for _, d := range c.listDims {
			util += term(d, st.Aggregate(d))
		}
		if util > best {
			best = util
		}
	}
	return best
}

// TestKernelsMatchUnfusedReference holds every fused search kernel to
// bitwise equality with the plain State operations it replaces, over random
// spaces: every aggregation including null, several entries on one feature,
// nullable features on list and skip dimensions, zero and negative weights,
// ties and ±0 values, φ = 1 … 5 and parents of every size below φ. The
// whole-search oracles only see the kernels through the decisions they
// drive; this is where a wrong bit shows up as a wrong bit.
func TestKernelsMatchUnfusedReference(t *testing.T) {
	kernels := []struct {
		name string
		// eval returns the kernel's and the reference's result for one parent.
		eval func(c *kernelCase, parent *State) (got, want float64)
	}{
		{"ScoreAfter", func(c *kernelCase, p *State) (float64, float64) {
			return p.ScoreAfter(c.score, c.id), c.u.ScoreState(c.grown(p))
		}},
		{"ScoreAfterBatch", func(c *kernelCase, p *State) (float64, float64) {
			out := make([]float64, len(c.parents))
			ScoreAfterBatch(c.score, c.id, c.parents, out)
			return out[p.Size], c.u.ScoreState(c.grown(p))
		}},
		{"GrowFrom", func(c *kernelCase, p *State) (float64, float64) {
			g, want := NewState(c.sp), c.grown(p)
			g.GrowFrom(p, c.score, c.id)
			if g.Size != want.Size {
				return float64(g.Size), float64(want.Size)
			}
			// GrowFrom maintains exactly the weighted dimensions.
			for d, w := range c.u.W {
				if w == 0 || c.sp.Profile.Entry(d).Agg == AggNull {
					continue
				}
				for s := aggStride * d; s < aggStride*(d+1); s++ {
					if !sameBits(g.agg[s], want.agg[s]) {
						return g.agg[s], want.agg[s]
					}
				}
			}
			return 0, 0
		}},
		{"PadUpper", func(c *kernelCase, p *State) (float64, float64) {
			return p.Clone().PadUpper(c.pad, c.modes, c.taus, c.sp.MaxSize), c.padReference(p, c.modes)
		}},
		{"PadUpperTau", func(c *kernelCase, p *State) (float64, float64) {
			return p.PadUpperTau(c.pad, c.taus, c.sp.MaxSize),
				p.Clone().PadUpper(c.pad, c.allTau, c.taus, c.sp.MaxSize)
		}},
		{"PadUpperTauAfter", func(c *kernelCase, p *State) (float64, float64) {
			g := NewState(c.sp)
			g.GrowFrom(p, c.score, c.id)
			return p.PadUpperTauAfter(c.pad, c.id, c.taus, c.sp.MaxSize),
				g.PadUpperTau(c.pad, c.taus, c.sp.MaxSize)
		}},
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 4000; trial++ {
		c := newKernelCase(rng)
		for _, p := range c.parents {
			before := p.Clone()
			for _, k := range kernels {
				got, want := k.eval(c, p)
				if !sameBits(got, want) {
					t.Fatalf("trial %d: %s on a size-%d parent, φ=%d, profile %s, w=%v, skips %v, lists %v: got %v (%#x), reference %v (%#x)",
						trial, k.name, p.Size, c.sp.MaxSize, c.sp.Profile, c.u.W, c.skipDims, c.listDims,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			if p.Size != before.Size || !slices.EqualFunc(p.agg, before.agg, sameBits) {
				t.Fatalf("trial %d: a kernel modified its size-%d parent", trial, p.Size)
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
