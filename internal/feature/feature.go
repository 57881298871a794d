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
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// Dims returns the number of utility dimensions (profile entries).
func (p *Profile) Dims() int { return len(p.entries) }

// FeatureCount returns the number of raw item features the profile expects.
func (p *Profile) FeatureCount() int { return p.featureCount }

// Entry returns the i-th profile entry.
func (p *Profile) Entry(i int) Entry { return p.entries[i] }

// Entries returns a copy of the profile's entries.
func (p *Profile) Entries() []Entry {
	cp := make([]Entry, len(p.entries))
	copy(cp, p.entries)
	return cp
}

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

// Normalizer scales raw aggregate values into [0,1] per dimension. The
// scale for a dimension is the maximum aggregate value achievable by any
// package of size at most maxSize (paper §2): for sum, the sum of the
// maxSize largest values of the feature; for min, max and avg, the maximum
// item value.
type Normalizer struct {
	scales []float64
	// Delta-maintenance state (see newNormalizerFrom): per dimension, the
	// count of non-null values of the dimension's feature and the
	// descending "top" values the scale derives from — up to maxSize
	// values for sum dimensions, the single max otherwise; nil while the
	// dimension has no values or uses AggNull. Top slices may be shared
	// between a parent normalizer and normalizers derived from it, so they
	// are never mutated in place.
	counts  []int
	tops    [][]float64
	maxSize int
}

// newNormalizer computes the per-dimension scales of the items' prebuilt
// columns for the given profile and maximum package size; items is kept
// only for error attribution.
func newNormalizer(cols [][]float64, items []Item, p *Profile, maxSize int) (*Normalizer, error) {
	if maxSize <= 0 {
		return nil, fmt.Errorf("feature: maxSize must be positive, got %d", maxSize)
	}
	n := newEmptyNormalizer(p, maxSize)
	for d, e := range p.entries {
		if e.Agg == AggNull {
			continue
		}
		count, top, err := dimTop(cols[e.Feature], items, e, maxSize)
		if err != nil {
			return nil, err
		}
		n.setDim(d, e.Agg, count, top)
	}
	return n, nil
}

func newEmptyNormalizer(p *Profile, maxSize int) *Normalizer {
	n := &Normalizer{
		scales:  make([]float64, p.Dims()),
		counts:  make([]int, p.Dims()),
		tops:    make([][]float64, p.Dims()),
		maxSize: maxSize,
	}
	for d := range n.scales {
		n.scales[d] = 1 // AggNull and empty dimensions scale by 1
	}
	return n
}

// setDim installs one dimension's maintained state and derives its scale.
func (n *Normalizer) setDim(d int, agg Agg, count int, top []float64) {
	n.counts[d] = count
	n.tops[d] = top
	n.scales[d] = scaleFrom(agg, count, top)
}

// dimTop scans entry e's value column and returns the non-null value count
// and the descending top values the dimension's scale derives from: the
// maxSize largest for sum, the single max otherwise. Non-sum dimensions
// take a single allocation-free max pass; sum dimensions select the top
// maxSize through a bounded min-heap (O(n·log φ)) and sort only those —
// the descending value sequence (and hence the scale bits) is identical to
// a full descending sort, because the selected multiset and its sorted
// order are unique. items is consulted only to attribute errors.
func dimTop(col []float64, items []Item, e Entry, maxSize int) (count int, top []float64, err error) {
	if e.Agg != AggSum {
		// min, max, avg: the best achievable is the single best item.
		best := 0.0
		for i, v := range col {
			if IsNull(v) {
				continue
			}
			if v < 0 {
				return 0, nil, fmt.Errorf("feature: item %d has negative value %g on feature %d", items[i].ID, v, e.Feature)
			}
			count++
			if v > best {
				best = v
			}
		}
		if count == 0 {
			return 0, nil, nil
		}
		return count, []float64{best}, nil
	}
	// Sum: keep the maxSize largest values in a min-heap rooted at heap[0].
	heap := make([]float64, 0, maxSize)
	for i, v := range col {
		if IsNull(v) {
			continue
		}
		if v < 0 {
			return 0, nil, fmt.Errorf("feature: item %d has negative value %g on feature %d", items[i].ID, v, e.Feature)
		}
		count++
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
	if count == 0 {
		return 0, nil, nil
	}
	slices.SortFunc(heap, descFloat)
	return count, heap, nil
}

// descFloat orders float64s descending (lists never contain nulls).
func descFloat(a, b float64) int { return cmp.Compare(b, a) }

// scaleFrom derives the normalization divisor from the maintained state,
// reproducing newNormalizer's coercions exactly: dimensions with no
// values, or whose best achievable aggregate is 0, scale by 1. Summing
// the descending top values gives the same float result as newNormalizer
// because it adds the same value sequence in the same order.
func scaleFrom(agg Agg, count int, top []float64) float64 {
	if count == 0 {
		return 1
	}
	s := 0.0
	switch agg {
	case AggSum:
		for _, v := range top {
			s += v
		}
	default:
		s = top[0]
	}
	if s == 0 {
		return 1
	}
	return s
}

// newNormalizerFrom derives the normalizer for an item set obtained from
// the parent's by removing and then adding raw value rows (a changed item
// contributes one row to each). cols is the new set's prebuilt columnar
// storage (rescans read it). A dimension's scale is recomputed from
// scratch — a full rescan of the column — only when a removed value reaches
// the state the scale derives from: ≥ the top-maxSize cutoff for sum
// dimensions, equal to the max otherwise (with a not-yet-full top set,
// every value participates, so any removal rescans). Additions never force
// a rescan: the top set absorbs them in O(maxSize). Scales are
// bit-identical to newNormalizer over items — untouched dimensions keep
// the parent's scale verbatim, incremental updates preserve the top value
// sequence a fresh sort would produce, and rescanned dimensions re-run the
// same computation.
func newNormalizerFrom(parent *Normalizer, cols [][]float64, items []Item, p *Profile, maxSize int, removed, added [][]float64) (*Normalizer, error) {
	if maxSize != parent.maxSize {
		return nil, fmt.Errorf("feature: newNormalizerFrom maxSize %d, parent has %d", maxSize, parent.maxSize)
	}
	n := newEmptyNormalizer(p, maxSize)
	var remVals, addVals []float64 // per-dimension scratch
	for d, e := range p.entries {
		if e.Agg == AggNull {
			continue
		}
		remVals, addVals = remVals[:0], addVals[:0]
		for _, row := range removed {
			if v := row[e.Feature]; !IsNull(v) {
				remVals = append(remVals, v)
			}
		}
		for _, row := range added {
			v := row[e.Feature]
			if IsNull(v) {
				continue
			}
			if v < 0 {
				return nil, fmt.Errorf("feature: negative value %g on feature %d", v, e.Feature)
			}
			addVals = append(addVals, v)
		}
		count, top := parent.counts[d], parent.tops[d]
		if len(remVals) == 0 && len(addVals) == 0 {
			n.setDim(d, e.Agg, count, top) // untouched: share the parent's state
			continue
		}
		// cutoff is the smallest value still contributing to the scale;
		// -Inf when the top set is not full (then every value contributes).
		cutoff := math.Inf(-1)
		if e.Agg == AggSum {
			if len(top) >= maxSize {
				cutoff = top[len(top)-1]
			}
		} else if count > 0 {
			cutoff = top[0]
		}
		dirty := false
		for _, v := range remVals {
			if v >= cutoff {
				dirty = true
				break
			}
			count--
		}
		if dirty {
			count, top, _ = dimTop(cols[e.Feature], items, e, maxSize) // rows already validated
		} else if len(addVals) > 0 {
			top = slices.Clone(top)
			for _, v := range addVals {
				count++
				if e.Agg == AggSum {
					if len(top) >= maxSize && v <= top[len(top)-1] {
						continue // below the cutoff: the top set is unchanged
					}
					i, _ := slices.BinarySearchFunc(top, v, descFloat)
					top = slices.Insert(top, i, v)
					if len(top) > maxSize {
						top = top[:maxSize]
					}
				} else if len(top) == 0 {
					top = []float64{v}
				} else if v > top[0] {
					top[0] = v // already cloned above
				}
			}
		}
		n.setDim(d, e.Agg, count, top)
	}
	return n, nil
}

// Scale returns the normalization divisor for dimension d.
func (n *Normalizer) Scale(d int) float64 { return n.scales[d] }

// Space bundles the immutable inputs of a recommendation problem: the item
// set, the profile, the package size bound and the derived normalizer. It
// is the context against which packages are evaluated.
//
// Value storage is struct-of-arrays: cols[f] is the contiguous column of
// every item's value on raw feature f (Null entries verbatim). The scoring
// kernels, the sorted-list index and the normalizer scans all iterate
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
	Norm    *Normalizer
	// cols[f][i] is item i's value on feature f (Null where missing).
	cols [][]float64
	// hasNull[f] records whether any item lacks feature f; used by the
	// upper-bound estimator to decide whether a "no contribution" pad is
	// attainable.
	hasNull []bool
	// hash is the geometry fingerprint (see Hash).
	hash uint64
}

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
// columnar value storage, the normalizer and the null-presence flags.
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
	cols, hasNull := buildColumns(items, p.FeatureCount())
	norm, err := newNormalizer(cols, items, p, maxSize)
	if err != nil {
		return nil, err
	}
	return newSpace(items, p, maxSize, norm, cols, hasNull), nil
}

// newSpace assembles a space from precomputed parts, deriving the geometry
// fingerprint.
func newSpace(items []Item, p *Profile, maxSize int, norm *Normalizer, cols [][]float64, hasNull []bool) *Space {
	sp := &Space{Items: items, Profile: p, MaxSize: maxSize, Norm: norm, cols: cols, hasNull: hasNull}
	sp.hash = sp.fingerprint()
	return sp
}

// NewSpaceFrom derives the space for a new dense item slice from a parent
// space whose item set differs by the given raw value rows: removed lists
// the rows that left the parent's set, added the rows that entered (a
// changed item contributes one row to each). The result is bit-identical
// to NewSpace(items, parent.Profile, parent.MaxSize) — per-dimension
// normalizer scales are recomputed only where the delta touches the
// values they derive from (newNormalizerFrom), and the columns, null flags
// and geometry fingerprint come from one pass over the new items — but
// skips the parent-untouched per-dimension sorts, so its cost scales with
// the delta plus that O(n) pass, not O(n log n).
func NewSpaceFrom(parent *Space, items []Item, removed, added [][]float64) (*Space, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("feature: empty item set")
	}
	p := parent.Profile
	for i := range items {
		if len(items[i].Values) != p.FeatureCount() {
			return nil, fmt.Errorf("feature: item %d has %d values, profile expects %d",
				items[i].ID, len(items[i].Values), p.FeatureCount())
		}
	}
	for _, rows := range [2][][]float64{removed, added} {
		for _, row := range rows {
			if len(row) != p.FeatureCount() {
				return nil, fmt.Errorf("feature: delta row has %d values, profile expects %d", len(row), p.FeatureCount())
			}
		}
	}
	cols, hasNull := buildColumns(items, p.FeatureCount())
	norm, err := newNormalizerFrom(parent.Norm, cols, items, p, parent.MaxSize, removed, added)
	if err != nil {
		return nil, err
	}
	return newSpace(items, p, parent.MaxSize, norm, cols, hasNull), nil
}

// fingerprint digests everything package-vector geometry depends on: the
// profile's dimensions, φ, and every item value in dense order. Names and
// stable IDs are excluded — they do not enter any vector.
func (s *Space) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(s.MaxSize))
	word(uint64(s.Profile.Dims()))
	for _, e := range s.Profile.Entries() {
		word(uint64(e.Feature)<<8 | uint64(e.Agg))
	}
	word(uint64(len(s.Items)))
	for i := range s.Items {
		for _, v := range s.Items[i].Values {
			word(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// Hash is a fingerprint of the space's vector geometry: two spaces with
// equal hashes compute (with overwhelming probability) bitwise-identical
// package vectors for the same dense IDs. Persistence uses it to decide
// whether state maintained against one space is valid under another —
// epoch counters are per-process, so an epoch ID alone cannot identify
// geometry across deployments.
func (s *Space) Hash() uint64 { return s.hash }

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
		v[d] = st.Aggregate(d) / st.space.Norm.Scale(d)
	}
	return v
}

// Pad modes select which imaginary contributions PadUpper may choose for a
// dimension with an active sorted list: the list's boundary value τ, a null
// contribution, or whichever of the two scores higher (attainable when the
// feature has nulls in the dataset).
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
// chasing profile, normalizer, weight and per-item row slices.
type kernelDim struct {
	w, scale float64
	col      []float64
	feat     int32
	b        int32
	kind     Agg
}

func makeKernelDim(s *Space, u *Utility, d int) kernelDim {
	e := s.Profile.entries[d]
	return kernelDim{
		w:     u.W[d],
		scale: s.Norm.scales[d],
		col:   s.cols[e.Feature],
		feat:  int32(e.Feature),
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
	for d := 0; d < s.Dims(); d++ {
		if u.W[d] != 0 {
			pl.dims = append(pl.dims, makeKernelDim(s, u, d))
		}
		if u.W[d] == 0 || s.Profile.entries[d].Agg == AggNull {
			pl.uncov = append(pl.uncov, int32(aggStride*d))
		}
	}
	return pl
}

// PadPlan caches the constants the pad kernels read: skips are the
// non-zero-weight dimensions without an active sorted list, lists the
// dimensions with one, both in ascending dimension order. The τ-only kernels
// read weight, scale and aggregation kind — which is their per-dimension
// class: constant (min/max), sum or avg — straight from the plan; nothing is
// copied or classified per call.
type PadPlan struct {
	skips []kernelDim
	lists []kernelDim
}

// NewPadPlan builds the PadUpper plan for utility u over space s from the
// two dimension groups (each ascending).
func NewPadPlan(s *Space, u *Utility, skipDims, listDims []int) *PadPlan {
	pl := &PadPlan{}
	for _, d := range skipDims {
		pl.skips = append(pl.skips, makeKernelDim(s, u, d))
	}
	for _, d := range listDims {
		pl.lists = append(pl.lists, makeKernelDim(s, u, d))
	}
	return pl
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

// PadUpper is the fused upper-exp padding loop (search Algorithm 3): it
// repeatedly extends st with the per-dimension best imaginary contribution
// until the size cap phi, returning the running maximum utility over pad
// counts 1..phi−Size. It mutates the receiver (callers pass a scratch copy).
//
// modes and taus parallel pl.lists: each list dimension's pad mode and
// current boundary value τ. Per round each dimension's contribution is
// computed against the pre-round state (each fold touches only its own
// dimension's slots, and the size divisor advances once per round), so the
// result is bit-identical to the unfused choose-then-fold formulation; ties
// between τ and a null contribution keep τ.
func (st *State) PadUpper(pl *PadPlan, modes []uint8, taus []float64, phi int) float64 {
	agg := st.agg
	best := math.Inf(-1)
	for st.Size < phi {
		szp1 := float64(st.Size + 1)
		util := 0.0
		for i := range pl.skips {
			kd := &pl.skips[i]
			var a float64
			if kd.kind != AggNull {
				b := kd.b
				if agg[b] != 0 {
					switch kd.kind {
					case AggMin:
						a = agg[b+2]
					case AggMax:
						a = agg[b+3]
					case AggSum:
						a = agg[b+1]
					case AggAvg:
						a = agg[b+1] / szp1
					}
				}
			}
			util += kd.w * a / kd.scale
		}
		for i := range pl.lists {
			kd := &pl.lists[i]
			b := kd.b
			mode := modes[i]
			var bestVal, tau float64
			foldTau := false
			if mode != PadSkip {
				tau = taus[i]
				sum := agg[b+1] + tau
				mn, mx := agg[b+2], agg[b+3]
				if tau < mn {
					mn = tau
				}
				if tau > mx {
					mx = tau
				}
				var a float64
				switch kd.kind {
				case AggMin:
					a = mn
				case AggMax:
					a = mx
				case AggSum:
					a = sum
				case AggAvg:
					a = sum / szp1
				}
				bestVal = kd.w * a / kd.scale
				foldTau = true
			}
			if mode != PadTau {
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
						a = agg[b+1] / szp1
					}
				}
				if v := kd.w * a / kd.scale; mode == PadSkip || v > bestVal {
					bestVal = v
					foldTau = false
				}
			}
			util += bestVal
			if foldTau {
				agg[b]++
				agg[b+1] += tau
				if tau < agg[b+2] {
					agg[b+2] = tau
				}
				if tau > agg[b+3] {
					agg[b+3] = tau
				}
			}
		}
		st.Size++
		if util > best {
			best = util
		}
	}
	return best
}

// padFastDims caps the dimension count (skips plus lists) the τ-only kernels
// can handle with their stack-resident scratch; see PadPlan.TauOnly.
const padFastDims = 16

// TauOnly reports whether the plan fits the τ-only kernels (PadUpperTau,
// PadUpperTauAfter). Callers must additionally hold every list dimension in
// mode PadTau, and fall back to PadUpper otherwise.
func (pl *PadPlan) TauOnly() bool { return len(pl.skips)+len(pl.lists) <= padFastDims }

// PadUpperTau is PadUpper specialized to runs where every list dimension
// still pads with its boundary value τ (mode PadTau throughout) — the common
// case for null-free datasets with live cursors. τ is constant within a
// call, so a dimension's min/max slots stop moving after the first fold and
// its sum advances by exactly τ per round; padTau replays PadUpper's float
// operation sequence on one stack-resident running value per dimension
// instead of folding into the agg array, which lets callers skip the scratch
// copy entirely. The receiver is not modified. Bit-identical to PadUpper with
// all modes PadTau: per-round sums chain through the same additions, min/max
// fold to the same constant, and the per-dimension w·a/scale terms accumulate
// in the same order. pl.TauOnly() must hold.
func (st *State) PadUpperTau(pl *PadPlan, taus []float64, phi int) float64 {
	return st.padTau(pl, -1, taus, st.Size, phi)
}

// PadUpperTauAfter returns the upper-exp bound of the receiver grown by the
// item with dense id — GrowFrom followed by PadUpperTau, bit for bit — without
// materializing the grown state: the item's column values fold into the
// per-dimension running values as they are seeded, and the pad rounds start
// one size up. The receiver is not modified. pl.TauOnly() must hold.
func (st *State) PadUpperTauAfter(pl *PadPlan, id int32, taus []float64, phi int) float64 {
	return st.padTau(pl, id, taus, st.Size+1, phi)
}

// padTau is the body of the τ-only kernels: pad the receiver — grown by item
// id first when id ≥ 0 — from package size `size` up to phi. One running
// value per dimension (skips first, then lists) is seeded from the summary
// slot the dimension's aggregation reads, with the item's column value
// folded in: for min/max and empty dimensions the round-invariant
// contribution w·a/scale itself, for sum/avg the sum the rounds advance
// (lists, by τ) or only re-divide (avg skips). A null item value, like no
// item at all, is a NaN that no min/max comparison admits.
func (st *State) padTau(pl *PadPlan, id int32, taus []float64, size, phi int) float64 {
	agg := st.agg
	null := math.NaN()
	var run [padFastDims]float64
	ns := len(pl.skips)
	for i := range pl.skips {
		kd := &pl.skips[i]
		b := kd.b
		v, count := null, agg[b]
		if id >= 0 {
			v = kd.col[id]
		}
		if !IsNull(v) {
			count++
		}
		var a float64 // the aggregate — for avg the sum, whose divisor moves
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
			run[i] = a // +0 while the dimension is empty, like PadUpper's a
		} else {
			run[i] = kd.w * a / kd.scale
		}
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
		if util > best {
			best = util
		}
	}
	return best
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
		s += w * st.Aggregate(d) / st.space.Norm.Scale(d)
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
