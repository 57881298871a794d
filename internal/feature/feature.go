// Package feature defines items, aggregate feature profiles, utility
// functions and the incremental package state used throughout the system.
//
// An item is an m-dimensional vector of non-negative feature values (with
// optional nulls). A package is a set of items; its feature vector is
// obtained by aggregating item values according to a Profile, one entry per
// utility dimension. Utility is a linear function of the normalized
// aggregate vector (paper §2, Equation 1).
package feature

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Null is the sentinel for a missing feature value. The paper allows items
// to lack values for some features; aggregates skip nulls.
var Null = math.NaN()

// IsNull reports whether a feature value is the null sentinel.
func IsNull(v float64) bool { return math.IsNaN(v) }

// Agg identifies one of the aggregation functions a profile entry may use
// (paper Definition 1).
type Agg uint8

// Aggregation functions. AggNull means the dimension is ignored.
const (
	AggNull Agg = iota
	AggMin
	AggMax
	AggSum
	AggAvg
)

// String returns the lower-case name of the aggregation.
func (a Agg) String() string {
	switch a {
	case AggNull:
		return "null"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	}
	return fmt.Sprintf("agg(%d)", uint8(a))
}

// Item is a single recommendable entity: an identifier plus its raw feature
// values. Values must be non-negative; use Null for missing values.
type Item struct {
	// ID is a dense index into the item set (0..n-1).
	ID int
	// Name is an optional human-readable label.
	Name string
	// Values holds the raw feature values, Null where missing.
	Values []float64
}

// Entry is one utility dimension of an aggregate feature profile: an
// aggregation applied to one item feature. The paper assumes one entry per
// feature; allowing several entries to reference the same feature is the
// generalization the paper notes is straightforward.
type Entry struct {
	// Feature is the index of the item feature this entry aggregates.
	Feature int
	// Agg is the aggregation function.
	Agg Agg
}

// Profile is an aggregate feature profile (paper Definition 1): the list of
// utility dimensions of the package feature space.
type Profile struct {
	entries []Entry
	// featureCount is the number of raw item features the profile expects.
	featureCount int
}

// NewProfile builds a profile over items with featureCount raw features.
// Every entry's feature index must be within range.
func NewProfile(featureCount int, entries ...Entry) (*Profile, error) {
	if featureCount <= 0 {
		return nil, fmt.Errorf("feature: featureCount must be positive, got %d", featureCount)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("feature: profile needs at least one entry")
	}
	for i, e := range entries {
		if e.Feature < 0 || e.Feature >= featureCount {
			return nil, fmt.Errorf("feature: entry %d references feature %d, want [0,%d)", i, e.Feature, featureCount)
		}
	}
	cp := make([]Entry, len(entries))
	copy(cp, entries)
	return &Profile{entries: cp, featureCount: featureCount}, nil
}

// MustProfile is NewProfile that panics on error; intended for tests,
// examples and literals whose validity is static.
func MustProfile(featureCount int, entries ...Entry) *Profile {
	p, err := NewProfile(featureCount, entries...)
	if err != nil {
		panic(err)
	}
	return p
}

// SimpleProfile builds the paper's default profile: entry i applies aggs[i]
// to feature i.
func SimpleProfile(aggs ...Agg) *Profile {
	entries := make([]Entry, len(aggs))
	for i, a := range aggs {
		entries[i] = Entry{Feature: i, Agg: a}
	}
	return MustProfile(len(aggs), entries...)
}

// CycledProfile is the SimpleProfile of m features whose aggregations cycle
// sum, avg, max, min — the implicit profile the paper's experiments use on
// synthetic data, which exercises every aggregate class.
func CycledProfile(m int) *Profile {
	cycle := []Agg{AggSum, AggAvg, AggMax, AggMin}
	aggs := make([]Agg, m)
	for i := range aggs {
		aggs[i] = cycle[i%len(cycle)]
	}
	return SimpleProfile(aggs...)
}

// Dims returns the number of utility dimensions (profile entries).
func (p *Profile) Dims() int { return len(p.entries) }

// FeatureCount returns the number of raw item features the profile expects.
func (p *Profile) FeatureCount() int { return p.featureCount }

// Entry returns the i-th profile entry.
func (p *Profile) Entry(i int) Entry { return p.entries[i] }

// String renders the profile as e.g. "(sum0, avg1)".
func (p *Profile) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, e := range p.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s%d", e.Agg, e.Feature)
	}
	b.WriteByte(')')
	return b.String()
}

// normScales computes the per-dimension normalization divisors of the items'
// prebuilt columns (see Space.Scale); items is kept only for error
// attribution.
func normScales(cols [][]float64, items []Item, p *Profile, maxSize int) ([]float64, error) {
	scales := make([]float64, p.Dims())
	for d, e := range p.entries {
		scales[d] = 1 // AggNull, empty and all-zero dimensions scale by 1
		if e.Agg == AggNull {
			continue
		}
		s, err := dimBest(cols[e.Feature], items, e, maxSize)
		if err != nil {
			return nil, err
		}
		if s != 0 {
			scales[d] = s
		}
	}
	return scales, nil
}

// dimBest scans entry e's value column for the largest aggregate a package
// of at most maxSize items reaches on it (0 when the column holds no
// values): the maxSize largest values' sum for sum, the single max
// otherwise. Non-sum dimensions take a single allocation-free max pass; sum
// dimensions select the top maxSize through a bounded min-heap (O(n·log φ))
// and add them in descending order — the order a full descending sort gives,
// so the bits do not depend on how the values were selected. items is
// consulted only to attribute errors.
func dimBest(col []float64, items []Item, e Entry, maxSize int) (float64, error) {
	if e.Agg != AggSum {
		// min, max, avg: the best achievable is the single best item.
		best := 0.0
		for i, v := range col {
			if IsNull(v) {
				continue
			}
			if v < 0 {
				return 0, fmt.Errorf("feature: item %d has negative value %g on feature %d", items[i].ID, v, e.Feature)
			}
			if v > best {
				best = v
			}
		}
		return best, nil
	}
	// Sum: keep the maxSize largest values in a min-heap rooted at heap[0].
	heap := make([]float64, 0, maxSize)
	for i, v := range col {
		if IsNull(v) {
			continue
		}
		if v < 0 {
			return 0, fmt.Errorf("feature: item %d has negative value %g on feature %d", items[i].ID, v, e.Feature)
		}
		if len(heap) < maxSize {
			heap = append(heap, v)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if heap[p] <= heap[c] {
					break
				}
				heap[p], heap[c] = heap[c], heap[p]
				c = p
			}
			continue
		}
		if v <= heap[0] {
			continue
		}
		heap[0] = v
		for c := 0; ; {
			l, r := 2*c+1, 2*c+2
			s := c
			if l < len(heap) && heap[l] < heap[s] {
				s = l
			}
			if r < len(heap) && heap[r] < heap[s] {
				s = r
			}
			if s == c {
				break
			}
			heap[c], heap[s] = heap[s], heap[c]
			c = s
		}
	}
	slices.Sort(heap)
	s := 0.0
	for i := len(heap) - 1; i >= 0; i-- {
		s += heap[i]
	}
	return s, nil
}

// Space bundles the immutable inputs of a recommendation problem: the item
// set, the profile, the package size bound and the derived scales. It
// is the context against which packages are evaluated.
//
// Value storage is struct-of-arrays: cols[f] is the contiguous column of
// every item's value on raw feature f (Null entries verbatim). The scoring
// kernels, the sorted-list index and the scale scans all iterate
// columns — one dense array per feature instead of a pointer chase per item
// — which is what keeps them cache-resident at million-item catalogues (and
// is the layout later SIMD work wants). Items keeps the row view for identity (ID, Name) and for
// cold paths that consume whole rows (serialization, oracles, examples);
// rows and columns hold bitwise-identical values.
type Space struct {
	Items   []Item
	Profile *Profile
	// MaxSize is φ, the system-defined maximum package size.
	MaxSize int
	// scales[d] is dimension d's normalization divisor (see Scale).
	scales []float64
	// cols[f][i] is item i's value on feature f (Null where missing).
	cols [][]float64
	// hasNull[f] records whether any item lacks feature f; used by the
	// upper-bound estimator to decide whether a "no contribution" pad is
	// attainable.
	hasNull []bool
}

// Scale returns the normalization divisor of dimension d, which scales its
// raw aggregate into [0,1] (paper §2): the maximum aggregate any package of
// at most MaxSize items reaches on it — for sum, the sum of the MaxSize
// largest values of the feature; for min, max and avg, the maximum item
// value. AggNull dimensions, dimensions without values and dimensions whose
// best aggregate is 0 scale by 1.
func (s *Space) Scale(d int) float64 { return s.scales[d] }

// Col returns the contiguous value column of raw feature f (do not mutate).
// Null entries hold the Null sentinel, so IsNull works directly on column
// reads.
func (s *Space) Col(f int) []float64 { return s.cols[f] }

// ColStats scans one column block — feature f restricted to the given
// item ids — and returns the min/max over its non-null values plus the
// non-null count. This is the cluster-scan primitive of the partition
// layer: per-cluster per-dimension bounds are rebuilt one contiguous
// column at a time (ids ascending keeps the reads forward-moving) instead
// of chasing item rows across every feature.
func (s *Space) ColStats(f int, ids []int32) (min, max float64, nonNull int) {
	col := s.cols[f]
	min, max = math.Inf(1), math.Inf(-1)
	for _, id := range ids {
		v := col[id]
		if IsNull(v) {
			continue
		}
		nonNull++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, nonNull
}

// buildColumns transposes the row-major item values into per-feature
// columns, noting which features have a null. One pass, O(n·featureCount).
func buildColumns(items []Item, featureCount int) (cols [][]float64, hasNull []bool) {
	n := len(items)
	colData := make([]float64, n*featureCount)
	cols = make([][]float64, featureCount)
	for f := range cols {
		cols[f] = colData[f*n : (f+1)*n : (f+1)*n]
	}
	hasNull = make([]bool, featureCount)
	for i := range items {
		vals := items[i].Values
		for f := 0; f < featureCount; f++ {
			v := vals[f]
			cols[f][i] = v
			if IsNull(v) {
				hasNull[f] = true
			}
		}
	}
	return cols, hasNull
}

// NewSpace validates the items against the profile and precomputes the
// columnar value storage, the normalization scales and the null-presence
// flags.
func NewSpace(items []Item, p *Profile, maxSize int) (*Space, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("feature: empty item set")
	}
	for i := range items {
		if len(items[i].Values) != p.FeatureCount() {
			return nil, fmt.Errorf("feature: item %d has %d values, profile expects %d",
				items[i].ID, len(items[i].Values), p.FeatureCount())
		}
	}
	if maxSize <= 0 {
		return nil, fmt.Errorf("feature: maxSize must be positive, got %d", maxSize)
	}
	cols, hasNull := buildColumns(items, p.FeatureCount())
	scales, err := normScales(cols, items, p, maxSize)
	if err != nil {
		return nil, err
	}
	return &Space{Items: items, Profile: p, MaxSize: maxSize, scales: scales, cols: cols, hasNull: hasNull}, nil
}

// HasNull reports whether any item is missing feature f.
func (s *Space) HasNull(f int) bool { return s.hasNull[f] }

// Dims returns the number of utility dimensions.
func (s *Space) Dims() int { return s.Profile.Dims() }

// N returns the number of items.
func (s *Space) N() int { return len(s.Items) }

// State is the incremental aggregate state of a package under construction:
// per utility dimension it tracks the running count of non-null
// contributions, their sum, min and max, plus the total package size. Adding
// an item is O(dims); the normalized aggregate vector and utility follow in
// O(dims).
type State struct {
	space *Space
	// Size is the number of items in the package (nulls included, per the
	// paper's avg definition which divides by |p|).
	Size int
	// agg packs the per-dimension summaries at stride 4 as
	// [count, sum, min, max]; count is stored as a float64, which is exact
	// for any reachable package size. The interleaved layout keeps one
	// dimension's summary on one cache line and lets the search kernels
	// copy a whole state with a single copy.
	agg []float64
}

// aggStride is the number of agg slots per dimension.
const aggStride = 4

// NewState returns the state of the empty package in space s.
func NewState(s *Space) *State {
	d := s.Dims()
	st := &State{space: s, agg: make([]float64, aggStride*d)}
	for i := 0; i < d; i++ {
		st.agg[aggStride*i+2] = math.Inf(1)
		st.agg[aggStride*i+3] = math.Inf(-1)
	}
	return st
}

// CopyFrom overwrites st with the contents of src (which must be over the
// same space), reusing st's storage — the allocation-free alternative to
// Clone for scratch states.
func (st *State) CopyFrom(src *State) {
	st.space = src.space
	st.Size = src.Size
	copy(st.agg, src.agg)
}

// Clone returns an independent copy of the state.
func (st *State) Clone() *State {
	return &State{
		space: st.space,
		Size:  st.Size,
		agg:   append([]float64(nil), st.agg...),
	}
}

// Add folds one item's values into the state. values must have the space's
// raw feature count; pass ContribNull for dimensions an imaginary item
// should skip (see AddContrib).
func (st *State) Add(it Item) {
	st.Size++
	for d, e := range st.space.Profile.entries {
		if e.Agg == AggNull {
			continue
		}
		v := it.Values[e.Feature]
		if IsNull(v) {
			continue
		}
		st.fold(d, v)
	}
}

// Contrib is a per-dimension contribution of an imaginary item used by the
// upper-bound estimator: either a concrete value or "no contribution".
type Contrib struct {
	// Skip true means the imaginary item is null on this dimension's feature.
	Skip bool
	// Value is the contributed value when Skip is false.
	Value float64
}

// AddContrib folds an imaginary item given explicit per-dimension
// contributions. The package size still increases by one (nulls count
// toward |p| in the paper's avg).
func (st *State) AddContrib(contribs []Contrib) {
	st.Size++
	for d := range st.space.Profile.entries {
		c := contribs[d]
		if c.Skip || st.space.Profile.entries[d].Agg == AggNull {
			continue
		}
		st.fold(d, c.Value)
	}
}

func (st *State) fold(d int, v float64) {
	b := aggStride * d
	st.agg[b]++
	st.agg[b+1] += v
	if v < st.agg[b+2] {
		st.agg[b+2] = v
	}
	if v > st.agg[b+3] {
		st.agg[b+3] = v
	}
}

// AggregateAfter returns the raw aggregate of dimension d as it would be if
// one more item were added with contribution c. The package size increments
// regardless of Skip (nulls count toward |p| in the paper's avg), but only a
// non-skipped value folds into the dimension.
func (st *State) AggregateAfter(d int, c Contrib) float64 {
	e := st.space.Profile.entries[d]
	if e.Agg == AggNull {
		return 0
	}
	b := aggStride * d
	count, sum, mn, mx := st.agg[b], st.agg[b+1], st.agg[b+2], st.agg[b+3]
	if !c.Skip {
		count++
		sum += c.Value
		if c.Value < mn {
			mn = c.Value
		}
		if c.Value > mx {
			mx = c.Value
		}
	}
	if count == 0 {
		return 0
	}
	switch e.Agg {
	case AggMin:
		return mn
	case AggMax:
		return mx
	case AggSum:
		return sum
	case AggAvg:
		return sum / float64(st.Size+1)
	}
	return 0
}

// Aggregate returns the raw (unnormalized) aggregate value of dimension d.
// Dimensions with no non-null contributions aggregate to 0.
func (st *State) Aggregate(d int) float64 {
	e := st.space.Profile.entries[d]
	b := aggStride * d
	if e.Agg == AggNull || st.agg[b] == 0 {
		return 0
	}
	switch e.Agg {
	case AggMin:
		return st.agg[b+2]
	case AggMax:
		return st.agg[b+3]
	case AggSum:
		return st.agg[b+1]
	case AggAvg:
		return st.agg[b+1] / float64(st.Size)
	}
	return 0
}

// Vector returns the normalized aggregate feature vector of the package.
func (st *State) Vector() []float64 {
	v := make([]float64, st.space.Dims())
	for d := range v {
		v[d] = st.Aggregate(d) / st.space.scales[d]
	}
	return v
}

// Pad modes select which imaginary contributions the pad kernel may choose
// for a dimension with an active sorted list: the list's boundary value τ, a
// null contribution, or whichever of the two scores higher (attainable when
// the feature has nulls in the dataset). A nil mode slice means PadTau
// throughout.
const (
	PadTau uint8 = iota
	PadTauOrSkip
	PadSkip
)

// kernelDim is one dimension's precomputed constants for the fused search
// kernels: weight, normalization scale, the feature's contiguous value
// column, flat agg offset and aggregation kind. Hoisting these out of the
// per-round loops is what makes the kernels cheap — the hot path touches
// one small struct per dimension and indexes one dense column instead of
// chasing profile, scale, weight and per-item row slices.
type kernelDim struct {
	w, scale float64
	col      []float64
	b        int32
	kind     Agg
}

func makeKernelDim(s *Space, u *Utility, d int) kernelDim {
	e := s.Profile.entries[d]
	return kernelDim{
		w:     u.W[d],
		scale: s.scales[d],
		col:   s.cols[e.Feature],
		b:     int32(aggStride * d),
		kind:  e.Agg,
	}
}

// ScorePlan caches the constants ScoreAfter reads: every dimension with
// non-zero weight, in ascending dimension order. uncov lists the agg base
// offsets of the remaining slots — zero-weight or null-aggregated
// dimensions — which GrowFrom carries over from the parent verbatim.
type ScorePlan struct {
	dims  []kernelDim
	uncov []int32
}

// NewScorePlan builds the ScoreAfter plan for utility u over space s.
func NewScorePlan(s *Space, u *Utility) *ScorePlan {
	pl := &ScorePlan{}
	pl.Reset(s, u)
	return pl
}

// Reset rebuilds pl in place as NewScorePlan(s, u) would build it, reusing
// its storage.
func (pl *ScorePlan) Reset(s *Space, u *Utility) {
	pl.dims, pl.uncov = pl.dims[:0], pl.uncov[:0]
	for d := 0; d < s.Dims(); d++ {
		if u.W[d] != 0 {
			pl.dims = append(pl.dims, makeKernelDim(s, u, d))
		}
		if u.W[d] == 0 || s.Profile.entries[d].Agg == AggNull {
			pl.uncov = append(pl.uncov, int32(aggStride*d))
		}
	}
}

// PadPlan caches the constants the pad kernel reads: skips are the
// non-zero-weight dimensions without an active sorted list, lists the
// dimensions with one, both in ascending dimension order. The kernel reads
// weight, scale and aggregation kind — with a list's pad mode, its
// per-dimension class — straight from the plan; nothing is copied per call.
type PadPlan struct {
	skips []kernelDim
	lists []kernelDim
}

// NewPadPlan builds the pad kernel's plan for utility u over space s from the
// two dimension groups (each ascending).
func NewPadPlan(s *Space, u *Utility, skipDims, listDims []int) *PadPlan {
	pl := &PadPlan{}
	pl.Reset(s, u, skipDims, listDims)
	return pl
}

// Reset rebuilds pl in place as NewPadPlan(s, u, skipDims, listDims) would
// build it, reusing its storage.
func (pl *PadPlan) Reset(s *Space, u *Utility, skipDims, listDims []int) {
	pl.skips, pl.lists = pl.skips[:0], pl.lists[:0]
	for _, d := range skipDims {
		pl.skips = append(pl.skips, makeKernelDim(s, u, d))
	}
	for _, d := range listDims {
		pl.lists = append(pl.lists, makeKernelDim(s, u, d))
	}
}

// GrowFrom overwrites st with src grown by the item with dense id, folding
// only the dimensions the plan covers. Safe only when st is read
// exclusively through plan-covered (non-zero-weight) dimensions —
// zero-weight slots keep the parent's values. This is the fused
// CopyFrom+Add of the search hot path; item values come from the space's
// per-feature columns.
func (st *State) GrowFrom(src *State, pl *ScorePlan, id int32) {
	st.space = src.space
	st.Size = src.Size + 1
	dst, sa := st.agg, src.agg
	// Slots the plan never reads are carried over verbatim; plan-covered
	// slots are written outright below, so no full copy is needed.
	for _, b := range pl.uncov {
		dst[b] = sa[b]
		dst[b+1] = sa[b+1]
		dst[b+2] = sa[b+2]
		dst[b+3] = sa[b+3]
	}
	for i := range pl.dims {
		kd := &pl.dims[i]
		if kd.kind == AggNull {
			continue
		}
		b := kd.b
		count, sum := sa[b], sa[b+1]
		mn, mx := sa[b+2], sa[b+3]
		if v := kd.col[id]; !IsNull(v) {
			count++
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		dst[b] = count
		dst[b+1] = sum
		dst[b+2] = mn
		dst[b+3] = mx
	}
}

// ScoreAfter returns U(p ∪ {t}) for the item with dense id t without
// materializing the grown state — the fused equivalent of summing
// w·AggregateAfter/scale over the non-zero dimensions, bit-identical to
// that loop. Item values are read from the per-feature columns.
func (st *State) ScoreAfter(pl *ScorePlan, id int32) float64 {
	agg := st.agg
	szp1 := float64(st.Size + 1)
	util := 0.0
	for i := range pl.dims {
		kd := &pl.dims[i]
		var a float64
		if kd.kind != AggNull {
			b := kd.b
			count, sum := agg[b], agg[b+1]
			mn, mx := agg[b+2], agg[b+3]
			if v := kd.col[id]; !IsNull(v) {
				count++
				sum += v
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if count != 0 {
				// Branch-free aggregate selection: the per-dimension kind
				// varies within one loop, so a switch here mispredicts on
				// nearly every iteration. Materializing all four candidates
				// and indexing by kind trades two cheap ALU ops (the division
				// is computed unconditionally) for the mispredict penalty.
				// Each candidate is the exact expression the switch would
				// compute, so the selected value is bit-identical.
				sel := [4]float64{mn, mx, sum, sum / szp1}
				a = sel[kd.kind-1]
			}
		}
		util += kd.w * a / kd.scale
	}
	return util
}

// ScoreAfterBatch writes U(p ∪ {t}) for each state into out (parallel to
// states), bit-identical to calling ScoreAfter on each state individually.
// Transposing the loops — dimensions outer, states inner — hoists the item
// value (one column load per dimension), its null test and the
// aggregation-kind dispatch out of the inner loop, so the per-state work
// is a handful of loads and one fused multiply-divide with no
// data-dependent branches. out entries accumulate per-dimension terms in
// the same ascending-dimension order as ScoreAfter.
func ScoreAfterBatch(pl *ScorePlan, id int32, states []*State, out []float64) {
	for j := range out {
		out[j] = 0
	}
	for i := range pl.dims {
		kd := &pl.dims[i]
		if kd.kind == AggNull {
			// ScoreAfter adds w·0/scale for null-aggregated dimensions; the
			// term is the same for every state.
			z := kd.w * 0 / kd.scale
			for j := range out {
				out[j] += z
			}
			continue
		}
		b := kd.b
		v := kd.col[id]
		if IsNull(v) {
			// No fold: the aggregate is the state's own (0 when empty).
			for j, st := range states {
				agg := st.agg
				var a float64
				if agg[b] != 0 {
					switch kd.kind {
					case AggMin:
						a = agg[b+2]
					case AggMax:
						a = agg[b+3]
					case AggSum:
						a = agg[b+1]
					case AggAvg:
						a = agg[b+1] / float64(st.Size+1)
					}
				}
				out[j] += kd.w * a / kd.scale
			}
			continue
		}
		// Non-null fold: the post-fold count is at least one, so the
		// count-zero guard of ScoreAfter always passes.
		switch kd.kind {
		case AggMin:
			for j, st := range states {
				mn := st.agg[b+2]
				if v < mn {
					mn = v
				}
				out[j] += kd.w * mn / kd.scale
			}
		case AggMax:
			for j, st := range states {
				mx := st.agg[b+3]
				if v > mx {
					mx = v
				}
				out[j] += kd.w * mx / kd.scale
			}
		case AggSum:
			for j, st := range states {
				sum := st.agg[b+1] + v
				out[j] += kd.w * sum / kd.scale
			}
		case AggAvg:
			for j, st := range states {
				sum := st.agg[b+1] + v
				a := sum / float64(st.Size+1)
				out[j] += kd.w * a / kd.scale
			}
		}
	}
}

// PadUpper is the upper-exp padding loop (search Algorithm 3): it extends st,
// round by round up to the size cap phi, with the per-dimension best
// imaginary contribution, and returns the running maximum utility over pad
// counts 1..phi−Size (−∞ when st is already at the cap). modes and taus
// parallel pl.lists: each list dimension's pad mode (nil: PadTau throughout)
// and current boundary value τ. Ties between τ and a null contribution keep
// τ. The receiver is not modified.
func (st *State) PadUpper(pl *PadPlan, modes []uint8, taus []float64, phi int) float64 {
	return st.pad(pl, -1, modes, taus, st.Size, phi)
}

// PadUpperAfter is PadUpper of the receiver grown by the item with dense id —
// GrowFrom followed by PadUpper, bit for bit — without materializing the
// grown state. The receiver is not modified.
func (st *State) PadUpperAfter(pl *PadPlan, id int32, modes []uint8, taus []float64, phi int) float64 {
	return st.pad(pl, id, modes, taus, st.Size+1, phi)
}

// PadUpperTau is PadUpper with every list dimension in mode PadTau.
func (st *State) PadUpperTau(pl *PadPlan, taus []float64, phi int) float64 {
	return st.pad(pl, -1, nil, taus, st.Size, phi)
}

// padStackDims is how many dimensions (skips plus lists) pad keeps its
// running values for on the stack; wider plans take them from the heap.
const padStackDims = 16

// pad is the one pad loop: pad the receiver — grown by item id first when
// id ≥ 0 — from package size `size` up to phi. It is bit-identical to the
// unfused loop that, per round, picks each list's contribution against the
// pre-round state, folds the imaginary item into the agg slots and scores
// skips then lists in ascending order; but it folds nothing. A dimension's
// term depends only on its own slots and the size divisor, and τ is constant
// within a call, so each dimension carries one running value, seeded from
// the slot its aggregation reads with the item's column value folded in (a
// null item value, like no item at all, is a NaN no min/max comparison
// admits):
//
//   - Skips, and lists in mode PadSkip, never fold: their term is invariant
//     (the running value) except for avg, whose sum is re-divided per round.
//   - A min/max list's term is invariant too. Under PadTau it is the slot
//     folded with τ once — folding the same τ again moves nothing. Under
//     PadTauOrSkip the first round picks τ or skip, ties to τ, and every
//     later round picks the same term: after a τ fold both candidates read
//     the folded slot, and after a skip nothing changed.
//   - A sum/avg list carries its sum: PadTau adds τ every round, the same
//     additions the folds chain; PadTauOrSkip scores both candidates every
//     round and adds τ unless the unfolded term is strictly larger. An empty
//     dimension's sum slot is +0, so the unfolded term needs no emptiness
//     test.
//
// Lists are seeded as PadTau (every mode carries a sum/avg list's sum), and
// with modes given, seedModes re-seeds the min/max lists in other modes and
// padRound takes each round's lists.
func (st *State) pad(pl *PadPlan, id int32, modes []uint8, taus []float64, size, phi int) float64 {
	agg := st.agg
	null := math.NaN()
	var buf [padStackDims]float64
	run := buf[:]
	if n := len(pl.skips) + len(pl.lists); n > len(buf) {
		run = make([]float64, n)
	}
	ns := len(pl.skips)
	for i := range pl.skips {
		kd := &pl.skips[i]
		v := null
		if id >= 0 {
			v = kd.col[id]
		}
		run[i] = kd.skipSeed(agg, v)
	}
	lists := pl.lists
	for i := range lists {
		kd := &lists[i]
		b := kd.b
		v, tau := null, taus[i]
		if id >= 0 {
			v = kd.col[id]
		}
		switch kd.kind {
		case AggMin:
			mn := agg[b+2]
			if v < mn {
				mn = v
			}
			if tau < mn {
				mn = tau
			}
			run[ns+i] = kd.w * mn / kd.scale
		case AggMax:
			mx := agg[b+3]
			if v > mx {
				mx = v
			}
			if tau > mx {
				mx = tau
			}
			run[ns+i] = kd.w * mx / kd.scale
		case AggSum, AggAvg:
			sum := agg[b+1]
			if !IsNull(v) {
				sum += v
			}
			run[ns+i] = sum
		default:
			run[ns+i] = kd.w * 0 / kd.scale
		}
	}
	if modes != nil {
		pl.seedModes(agg, id, modes, run[ns:])
	}
	best := math.Inf(-1)
	for sz := size; sz < phi; sz++ {
		szp1 := float64(sz + 1)
		util := 0.0
		for i := range pl.skips {
			kd := &pl.skips[i]
			if kd.kind == AggAvg {
				a := run[i] / szp1
				util += kd.w * a / kd.scale
			} else {
				util += run[i]
			}
		}
		if modes != nil {
			util = pl.padRound(modes, taus, run[ns:], szp1, util)
		} else {
			for i := range lists {
				kd := &lists[i]
				switch kd.kind {
				case AggSum:
					s := run[ns+i] + taus[i]
					run[ns+i] = s
					util += kd.w * s / kd.scale
				case AggAvg:
					s := run[ns+i] + taus[i]
					run[ns+i] = s
					a := s / szp1
					util += kd.w * a / kd.scale
				default:
					util += run[ns+i]
				}
			}
		}
		if util > best {
			best = util
		}
	}
	return best
}

// skipSeed is pad's running value for a dimension that does not fold: the
// term w·a/scale of its slots with the item value v folded in (NaN: none),
// or for avg the sum a, whose divisor moves. An empty dimension's a is +0.
func (kd *kernelDim) skipSeed(agg []float64, v float64) float64 {
	b := kd.b
	count := agg[b]
	if !IsNull(v) {
		count++
	}
	var a float64
	if count != 0 {
		switch kd.kind {
		case AggMin:
			a = agg[b+2]
			if v < a {
				a = v
			}
		case AggMax:
			a = agg[b+3]
			if v > a {
				a = v
			}
		case AggSum, AggAvg:
			a = agg[b+1]
			if !IsNull(v) {
				a += v
			}
		}
	}
	if kd.kind == AggAvg {
		return a
	}
	return kd.w * a / kd.scale
}

// seedModes re-seeds the min/max lists pad seeded as PadTau whose mode is
// PadSkip (the skip term) or PadTauOrSkip (the better term, ties to τ).
func (pl *PadPlan) seedModes(agg []float64, id int32, modes []uint8, run []float64) {
	for i := range pl.lists {
		kd := &pl.lists[i]
		if modes[i] == PadTau || kd.kind == AggSum || kd.kind == AggAvg {
			continue
		}
		v := math.NaN()
		if id >= 0 {
			v = kd.col[id]
		}
		if skip := kd.skipSeed(agg, v); modes[i] == PadSkip || skip > run[i] {
			run[i] = skip
		}
	}
}

// padRound adds one pad round's list terms to util, advancing the sums in
// run (parallel to pl.lists) by each list's mode, and returns util.
func (pl *PadPlan) padRound(modes []uint8, taus, run []float64, szp1, util float64) float64 {
	for i := range pl.lists {
		kd := &pl.lists[i]
		if kd.kind != AggSum && kd.kind != AggAvg {
			util += run[i]
			continue
		}
		s := run[i]
		skip, fold := s, s+taus[i]
		if kd.kind == AggAvg {
			skip, fold = s/szp1, fold/szp1
		}
		t := kd.w * fold / kd.scale
		if modes[i] != PadTau {
			// PadSkip never folds; PadTauOrSkip folds unless skipping
			// scores strictly higher.
			if k := kd.w * skip / kd.scale; modes[i] == PadSkip || k > t {
				util += k
				continue
			}
		}
		run[i] = s + taus[i]
		util += t
	}
	return util
}

// Utility is the linear utility function U(p) = w·p⃗ over normalized
// aggregate vectors (paper Equation 1). Weights conventionally lie in
// [-1,1]; a positive weight prefers larger aggregate values.
type Utility struct {
	W []float64
}

// NewUtility validates the weight vector against the profile dimension.
func NewUtility(p *Profile, w []float64) (*Utility, error) {
	if len(w) != p.Dims() {
		return nil, fmt.Errorf("feature: weight vector has %d dims, profile has %d", len(w), p.Dims())
	}
	return &Utility{W: append([]float64(nil), w...)}, nil
}

// Score returns w·vec.
func (u *Utility) Score(vec []float64) float64 {
	return Dot(u.W, vec)
}

// ScoreState returns the utility of a package state.
func (u *Utility) ScoreState(st *State) float64 {
	s := 0.0
	for d, w := range u.W {
		if w == 0 {
			continue
		}
		s += w * st.Aggregate(d) / st.space.scales[d]
	}
	return s
}

// SetMonotone reports whether the utility is set-monotone over the given
// profile: U(p ∪ p') ≥ U(p) for all packages (paper §4.1). This holds iff
// every dimension with non-zero weight is (sum or max with w ≥ 0) or
// (min with w ≤ 0); avg is never set-monotone.
func (u *Utility) SetMonotone(p *Profile) bool {
	for d, e := range p.entries {
		w := u.W[d]
		if w == 0 || e.Agg == AggNull {
			continue
		}
		switch e.Agg {
		case AggSum, AggMax:
			if w < 0 {
				return false
			}
		case AggMin:
			if w > 0 {
				return false
			}
		case AggAvg:
			return false
		}
	}
	return true
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
