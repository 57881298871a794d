package feature

import (
	"fmt"
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
	// modes holds the pad descriptors every pad kernel row runs under, each
	// parallel to listDims: random per list, and each mode throughout (nil
	// stands for PadTau throughout, as the kernel reads it).
	modes map[string][]uint8
	taus  []float64
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
	if rng.Intn(8) == 0 {
		dims = 17 + rng.Intn(8) // past the kernel's stack scratch
	}
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
	c := &kernelCase{sp: sp, id: int32(rng.Intn(len(items))), modes: map[string][]uint8{"tau": nil}}
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
		c.modes["random"] = append(c.modes["random"], uint8(rng.Intn(3)))
		c.modes["either"] = append(c.modes["either"], PadTauOrSkip)
		c.modes["skip"] = append(c.modes["skip"], PadSkip)
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
	term := func(d int, a float64) float64 { return c.u.W[d] * a / c.sp.Scale(d) }
	best := math.Inf(-1)
	for st.Size < c.sp.MaxSize {
		contribs := make([]Contrib, c.sp.Dims())
		for d := range contribs {
			contribs[d].Skip = true
		}
		for i, d := range c.listDims {
			tau, skip := Contrib{Value: c.taus[i]}, Contrib{Skip: true}
			mode := PadTau
			if modes != nil {
				mode = modes[i]
			}
			switch mode {
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

// kernelRow is one fused kernel of the reference suite, evaluated on one
// parent state of a case: the kernel's result and the reference's.
type kernelRow struct {
	name string
	eval func(c *kernelCase, parent *State) (got, want float64)
}

// kernelRows lists every fused search kernel with the plain State
// operations it replaces; the pad kernels run under each of the case's pad
// descriptors.
func kernelRows() []kernelRow {
	rows := []kernelRow{
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
		{"PadUpperTau", func(c *kernelCase, p *State) (float64, float64) {
			return p.PadUpperTau(c.pad, c.taus, c.sp.MaxSize), c.padReference(p, nil)
		}},
	}
	for _, mode := range []string{"random", "tau", "either", "skip"} {
		rows = append(rows,
			kernelRow{"PadUpper/" + mode, func(c *kernelCase, p *State) (float64, float64) {
				return p.PadUpper(c.pad, c.modes[mode], c.taus, c.sp.MaxSize), c.padReference(p, c.modes[mode])
			}},
			kernelRow{"PadUpperAfter/" + mode, func(c *kernelCase, p *State) (float64, float64) {
				return p.PadUpperAfter(c.pad, c.id, c.modes[mode], c.taus, c.sp.MaxSize), c.padReference(c.grown(p), c.modes[mode])
			}})
	}
	return rows
}

// checkKernelCase holds every kernel row to bitwise equality with its
// reference on every parent of c, and fails if a kernel modified a parent.
func checkKernelCase(t *testing.T, c *kernelCase, rows []kernelRow, label string) {
	t.Helper()
	for _, p := range c.parents {
		before := p.Clone()
		for _, k := range rows {
			got, want := k.eval(c, p)
			if !sameBits(got, want) {
				t.Fatalf("%s: %s on a size-%d parent, φ=%d, profile %s, w=%v, skips %v, lists %v, modes %v: got %v (%#x), reference %v (%#x)",
					label, k.name, p.Size, c.sp.MaxSize, c.sp.Profile, c.u.W, c.skipDims, c.listDims, c.modes["random"],
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if p.Size != before.Size || !slices.EqualFunc(p.agg, before.agg, sameBits) {
			t.Fatalf("%s: a kernel modified its size-%d parent", label, p.Size)
		}
	}
}

// TestKernelsMatchUnfusedReference holds every fused search kernel to
// bitwise equality with the plain State operations it replaces, over random
// spaces: every aggregation including null, several entries on one feature,
// nullable features on list and skip dimensions, zero and negative weights,
// ties and ±0 values, φ = 1 … 5, parents of every size below φ, every pad
// mode, and profiles wider than the pad kernel's stack scratch. The
// whole-search oracles only see the kernels through the decisions they
// drive; this is where a wrong bit shows up as a wrong bit.
func TestKernelsMatchUnfusedReference(t *testing.T) {
	rows := kernelRows()
	rng := rand.New(rand.NewSource(18))
	wide := 0
	for trial := 0; trial < 4000; trial++ {
		c := newKernelCase(rng)
		if len(c.skipDims)+len(c.listDims) > padStackDims {
			wide++
		}
		checkKernelCase(t, c, rows, fmt.Sprintf("trial %d", trial))
	}
	if wide == 0 {
		t.Error("no trial padded more dimensions than the stack scratch holds")
	}
}

// FuzzPadKernel runs the reference suite's kernel table on the case a seed
// draws.
func FuzzPadKernel(f *testing.F) {
	for _, seed := range []int64{0, 18, 30} {
		f.Add(seed)
	}
	rows := kernelRows()
	f.Fuzz(func(t *testing.T, seed int64) {
		checkKernelCase(t, newKernelCase(rand.New(rand.NewSource(seed))), rows, fmt.Sprintf("seed %d", seed))
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
