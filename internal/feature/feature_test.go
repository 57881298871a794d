package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperItems are the three items of the paper's Figure 1(a):
// f1 = cost, f2 = rating.
func paperItems() []Item {
	return []Item{
		{ID: 0, Name: "t1", Values: []float64{0.6, 0.2}},
		{ID: 1, Name: "t2", Values: []float64{0.4, 0.4}},
		{ID: 2, Name: "t3", Values: []float64{0.2, 0.4}},
	}
}

func paperSpace(t *testing.T) *Space {
	t.Helper()
	p := SimpleProfile(AggSum, AggAvg)
	sp, err := NewSpace(paperItems(), p, 2)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return sp
}

func TestAggString(t *testing.T) {
	cases := map[Agg]string{AggNull: "null", AggMin: "min", AggMax: "max", AggSum: "sum", AggAvg: "avg"}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("Agg(%d).String() = %q, want %q", a, got, want)
		}
	}
	if got := Agg(99).String(); got != "agg(99)" {
		t.Errorf("unknown agg prints %q", got)
	}
}

func TestNewProfileValidation(t *testing.T) {
	if _, err := NewProfile(0, Entry{0, AggSum}); err == nil {
		t.Error("zero featureCount accepted")
	}
	if _, err := NewProfile(2); err == nil {
		t.Error("empty entry list accepted")
	}
	if _, err := NewProfile(2, Entry{2, AggSum}); err == nil {
		t.Error("out-of-range feature accepted")
	}
	p, err := NewProfile(2, Entry{0, AggSum}, Entry{1, AggAvg}, Entry{0, AggAvg})
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	if p.Dims() != 3 {
		t.Errorf("Dims = %d, want 3 (multiple aggregations per feature)", p.Dims())
	}
}

func TestProfileString(t *testing.T) {
	p := SimpleProfile(AggSum, AggAvg)
	if got := p.String(); got != "(sum0, avg1)" {
		t.Errorf("String = %q", got)
	}
}

// TestNormalizerPaperExample checks the paper's Example 1: with φ=2 the
// maximum sum on f1 is 0.6+0.4 = 1 and the maximum avg on f2 is 0.4.
func TestNormalizerPaperExample(t *testing.T) {
	sp := paperSpace(t)
	if got := sp.Scale(0); got != 1.0 {
		t.Errorf("sum scale = %g, want 1.0", got)
	}
	if got := sp.Scale(1); got != 0.4 {
		t.Errorf("avg scale = %g, want 0.4", got)
	}
}

// TestVectorPaperExample checks the normalized vector of p1 = {t1} from
// Example 1: (0.6, 0.5).
func TestVectorPaperExample(t *testing.T) {
	sp := paperSpace(t)
	st := NewState(sp)
	st.Add(sp.Items[0])
	v := st.Vector()
	if math.Abs(v[0]-0.6) > 1e-12 || math.Abs(v[1]-0.5) > 1e-12 {
		t.Errorf("vector(p1) = %v, want (0.6, 0.5)", v)
	}
}

// TestPaperUtilityTable verifies every entry of Figure 2(c).
func TestPaperUtilityTable(t *testing.T) {
	sp := paperSpace(t)
	weights := [][]float64{{0.5, 0.1}, {0.1, 0.5}, {0.1, 0.1}}
	pkgs := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}}
	want := [][]float64{
		{0.35, 0.3, 0.2, 0.575, 0.4, 0.475},
		{0.31, 0.54, 0.52, 0.475, 0.56, 0.455},
		{0.11, 0.14, 0.12, 0.175, 0.16, 0.155},
	}
	for wi, w := range weights {
		u, err := NewUtility(sp.Profile, w)
		if err != nil {
			t.Fatalf("NewUtility: %v", err)
		}
		for pi, ids := range pkgs {
			st := NewState(sp)
			for _, id := range ids {
				st.Add(sp.Items[id])
			}
			got := u.ScoreState(st)
			if math.Abs(got-want[wi][pi]) > 1e-9 {
				t.Errorf("U(p%d | w%d) = %g, want %g", pi+1, wi+1, got, want[wi][pi])
			}
			// Score over the materialized vector must agree.
			if got2 := u.Score(st.Vector()); math.Abs(got-got2) > 1e-12 {
				t.Errorf("ScoreState %g != Score(Vector) %g", got, got2)
			}
		}
	}
}

func TestStateAggregates(t *testing.T) {
	p := SimpleProfile(AggMin, AggMax, AggSum, AggAvg)
	items := []Item{
		{ID: 0, Values: []float64{3, 3, 3, 3}},
		{ID: 1, Values: []float64{1, 5, 2, 1}},
		{ID: 2, Values: []float64{2, 4, 4, 2}},
	}
	sp, err := NewSpace(items, p, 3)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	st := NewState(sp)
	for _, it := range items {
		st.Add(it)
	}
	if got := st.Aggregate(0); got != 1 {
		t.Errorf("min = %g, want 1", got)
	}
	if got := st.Aggregate(1); got != 5 {
		t.Errorf("max = %g, want 5", got)
	}
	if got := st.Aggregate(2); got != 9 {
		t.Errorf("sum = %g, want 9", got)
	}
	if got := st.Aggregate(3); got != 2 {
		t.Errorf("avg = %g, want 2", got)
	}
}

// TestAvgDividesByPackageSize checks the paper's definition: avg divides by
// |p|, counting items whose value is null.
func TestAvgDividesByPackageSize(t *testing.T) {
	p := SimpleProfile(AggAvg)
	items := []Item{
		{ID: 0, Values: []float64{4}},
		{ID: 1, Values: []float64{Null}},
	}
	sp, err := NewSpace(items, p, 2)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	st := NewState(sp)
	st.Add(items[0])
	st.Add(items[1])
	if got := st.Aggregate(0); got != 2 {
		t.Errorf("avg with null member = %g, want 4/2 = 2", got)
	}
}

func TestNullsSkippedByMinMaxSum(t *testing.T) {
	p := SimpleProfile(AggMin, AggMax, AggSum)
	items := []Item{
		{ID: 0, Values: []float64{2, 2, 2}},
		{ID: 1, Values: []float64{Null, Null, Null}},
	}
	sp, err := NewSpace(items, p, 2)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	st := NewState(sp)
	st.Add(items[0])
	st.Add(items[1])
	for d, want := range []float64{2, 2, 2} {
		if got := st.Aggregate(d); got != want {
			t.Errorf("dim %d aggregate = %g, want %g", d, got, want)
		}
	}
	if !sp.HasNull(0) || !sp.HasNull(2) {
		t.Error("HasNull not detected")
	}
}

func TestEmptyStateAggregatesToZero(t *testing.T) {
	sp := paperSpace(t)
	st := NewState(sp)
	for d := 0; d < sp.Dims(); d++ {
		if got := st.Aggregate(d); got != 0 {
			t.Errorf("empty aggregate dim %d = %g, want 0", d, got)
		}
	}
}

func TestAggregateAfter(t *testing.T) {
	p := SimpleProfile(AggMin, AggMax, AggSum, AggAvg)
	items := []Item{{ID: 0, Values: []float64{3, 3, 3, 3}}}
	sp, err := NewSpace(items, p, 4)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	st := NewState(sp)
	st.Add(items[0])

	// Adding value 1: min drops, max stays, sum grows, avg = (3+1)/2.
	c := Contrib{Value: 1}
	if got := st.AggregateAfter(0, c); got != 1 {
		t.Errorf("min after = %g, want 1", got)
	}
	if got := st.AggregateAfter(1, c); got != 3 {
		t.Errorf("max after = %g, want 3", got)
	}
	if got := st.AggregateAfter(2, c); got != 4 {
		t.Errorf("sum after = %g, want 4", got)
	}
	if got := st.AggregateAfter(3, c); got != 2 {
		t.Errorf("avg after = %g, want 2", got)
	}
	// Skip: size grows but nothing folds; avg dilutes.
	s := Contrib{Skip: true}
	if got := st.AggregateAfter(0, s); got != 3 {
		t.Errorf("min after skip = %g, want 3", got)
	}
	if got := st.AggregateAfter(3, s); got != 1.5 {
		t.Errorf("avg after skip = %g, want 3/2", got)
	}
}

// TestAggregateAfterMatchesAddContrib: AggregateAfter must predict exactly
// what AddContrib produces — a property test over random states.
func TestAggregateAfterMatchesAddContrib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := SimpleProfile(AggMin, AggMax, AggSum, AggAvg)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := make([]Item, 1+r.Intn(6))
		for i := range items {
			vals := make([]float64, 4)
			for j := range vals {
				if r.Float64() < 0.2 {
					vals[j] = Null
				} else {
					vals[j] = r.Float64() * 10
				}
			}
			items[i] = Item{ID: i, Values: vals}
		}
		sp, err := NewSpace(items, p, len(items)+1)
		if err != nil {
			return false
		}
		st := NewState(sp)
		for _, it := range items {
			st.Add(it)
		}
		contribs := make([]Contrib, 4)
		for d := range contribs {
			if r.Float64() < 0.5 {
				contribs[d] = Contrib{Skip: true}
			} else {
				contribs[d] = Contrib{Value: r.Float64() * 10}
			}
		}
		var predicted [4]float64
		for d := 0; d < 4; d++ {
			predicted[d] = st.AggregateAfter(d, contribs[d])
		}
		st.AddContrib(contribs)
		for d := 0; d < 4; d++ {
			if math.Abs(st.Aggregate(d)-predicted[d]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSetMonotone(t *testing.T) {
	p := SimpleProfile(AggSum, AggMin, AggMax, AggAvg)
	for _, tc := range []struct {
		w    []float64
		want bool
	}{
		{[]float64{0.5, 0, 0, 0}, true},    // sum with positive weight
		{[]float64{-0.5, 0, 0, 0}, false},  // sum with negative weight
		{[]float64{0, -0.5, 0, 0}, true},   // min with negative weight (paper §4.1)
		{[]float64{0, 0.5, 0, 0}, false},   // min with positive weight
		{[]float64{0, 0, 0.5, 0}, true},    // max with positive weight
		{[]float64{0, 0, -0.5, 0}, false},  // max with negative weight
		{[]float64{0, 0, 0, 0.1}, false},   // avg never monotone
		{[]float64{0.5, -0.5, 0, 0}, true}, // paper's example: sum1 − min2
		{[]float64{0, 0, 0, 0}, true},      // all-zero weights trivially monotone
	} {
		u, err := NewUtility(p, tc.w)
		if err != nil {
			t.Fatalf("NewUtility: %v", err)
		}
		if got := u.SetMonotone(p); got != tc.want {
			t.Errorf("SetMonotone(w=%v) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestNewSpaceValidation(t *testing.T) {
	p := SimpleProfile(AggSum)
	if _, err := NewSpace(nil, p, 2); err == nil {
		t.Error("empty item set accepted")
	}
	bad := []Item{{ID: 0, Values: []float64{1, 2}}}
	if _, err := NewSpace(bad, p, 2); err == nil {
		t.Error("wrong-width item accepted")
	}
	neg := []Item{{ID: 0, Values: []float64{-1}}}
	if _, err := NewSpace(neg, p, 2); err == nil {
		t.Error("negative feature value accepted")
	}
	if _, err := NewSpace([]Item{{ID: 0, Values: []float64{1}}}, p, 0); err == nil {
		t.Error("non-positive maxSize accepted")
	}
}

func TestNewUtilityDimsMismatch(t *testing.T) {
	p := SimpleProfile(AggSum, AggAvg)
	if _, err := NewUtility(p, []float64{1}); err == nil {
		t.Error("dims mismatch accepted")
	}
}

func TestStateClone(t *testing.T) {
	sp := paperSpace(t)
	st := NewState(sp)
	st.Add(sp.Items[0])
	cp := st.Clone()
	cp.Add(sp.Items[1])
	if st.Size != 1 || cp.Size != 2 {
		t.Errorf("clone aliases original: sizes %d, %d", st.Size, cp.Size)
	}
	if st.Aggregate(0) == cp.Aggregate(0) {
		t.Error("clone shares aggregate state")
	}
}

func TestNormalizerZeroScaleGuard(t *testing.T) {
	p := SimpleProfile(AggSum)
	items := []Item{{ID: 0, Values: []float64{0}}}
	sp, err := NewSpace(items, p, 2)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	if got := sp.Scale(0); got != 1 {
		t.Errorf("all-zero feature scale = %g, want fallback 1", got)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
}

func TestItemVector(t *testing.T) {
	sp := paperSpace(t)
	st := NewState(sp)
	st.Add(sp.Items[1])
	v := st.Vector() // the package {t2}: (0.4, 0.4) → (0.4, 1.0)
	if math.Abs(v[0]-0.4) > 1e-12 || math.Abs(v[1]-1.0) > 1e-12 {
		t.Errorf("vector of {t2} = %v, want (0.4, 1)", v)
	}
}

// Property: normalized vectors of packages within the size bound stay in
// [0, 1] on every dimension for sum/avg/max/min profiles.
func TestNormalizedVectorsInUnitBox(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aggs := []Agg{AggMin, AggMax, AggSum, AggAvg}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(4)
		entries := make([]Agg, m)
		for i := range entries {
			entries[i] = aggs[r.Intn(len(aggs))]
		}
		p := SimpleProfile(entries...)
		n := 2 + r.Intn(8)
		items := make([]Item, n)
		for i := range items {
			vals := make([]float64, m)
			for j := range vals {
				vals[j] = r.Float64() * 100
			}
			items[i] = Item{ID: i, Values: vals}
		}
		maxSize := 1 + r.Intn(4)
		sp, err := NewSpace(items, p, maxSize)
		if err != nil {
			return false
		}
		// Random package within the size bound.
		st := NewState(sp)
		size := 1 + r.Intn(maxSize)
		perm := r.Perm(n)
		for i := 0; i < size && i < n; i++ {
			st.Add(items[perm[i]])
		}
		for _, v := range st.Vector() {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}
