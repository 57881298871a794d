package pkgspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"toppkg/internal/feature"
)

func space(t *testing.T, maxSize int) *feature.Space {
	t.Helper()
	items := []feature.Item{
		{ID: 0, Values: []float64{0.6, 0.2}},
		{ID: 1, Values: []float64{0.4, 0.4}},
		{ID: 2, Values: []float64{0.2, 0.4}},
	}
	p := feature.SimpleProfile(feature.AggSum, feature.AggAvg)
	sp, err := feature.NewSpace(items, p, maxSize)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return sp
}

func TestNewSortsAndDedups(t *testing.T) {
	p := New(3, 1, 3, 2)
	if got := p.Signature(); got != "1|2|3" {
		t.Errorf("Signature = %q, want 1|2|3", got)
	}
	if p.Size() != 3 {
		t.Errorf("Size = %d, want 3", p.Size())
	}
}

func TestString(t *testing.T) {
	if got := New(2, 0).String(); got != "{0, 2}" {
		t.Errorf("String = %q", got)
	}
}

// TestEnumerateCountsPaperExample: the paper's Figure 1(b) lists seven
// packages over three items with φ=3.
func TestEnumerateCountsPaperExample(t *testing.T) {
	sp := space(t, 3)
	var got []string
	Enumerate(sp, func(p Package) bool {
		got = append(got, p.Signature())
		return true
	})
	if len(got) != 7 {
		t.Fatalf("enumerated %d packages, want 7: %v", len(got), got)
	}
	seen := map[string]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate package %q", s)
		}
		seen[s] = true
	}
}

func TestEnumerateRespectsMaxSize(t *testing.T) {
	sp := space(t, 2)
	count := 0
	Enumerate(sp, func(p Package) bool {
		count++
		if p.Size() > 2 {
			t.Errorf("package %s exceeds max size", p)
		}
		return true
	})
	if count != 6 {
		t.Errorf("enumerated %d, want 6 (pairs + singletons)", count)
	}
}

// TestEnumerateStopsOnFalse: a callback answering false ends the walk at
// once, after the lexicographically first packages.
func TestEnumerateStopsOnFalse(t *testing.T) {
	sp := space(t, 3)
	var got []string
	Enumerate(sp, func(p Package) bool {
		got = append(got, p.Signature())
		return len(got) < 4
	})
	want := []Package{New(0), New(0, 1), New(0, 1, 2), New(0, 2)}
	if len(got) != len(want) {
		t.Fatalf("enumerated %v, want %d packages", got, len(want))
	}
	for i, p := range want {
		if got[i] != p.Signature() {
			t.Errorf("package %d = %s, want %s", i, got[i], p.Signature())
		}
	}
}

func TestVectorPaperP4(t *testing.T) {
	sp := space(t, 2)
	v := Vector(sp, New(0, 1)) // p4 = {t1,t2}: sum=1.0/1.0, avg=0.3/0.4
	if math.Abs(v[0]-1.0) > 1e-12 || math.Abs(v[1]-0.75) > 1e-12 {
		t.Errorf("Vector(p4) = %v, want (1, 0.75)", v)
	}
}

func TestBruteForceTopKPaperExample(t *testing.T) {
	sp := space(t, 2)
	// w1 = (0.5, 0.1): utilities p4=0.575 > p6=0.475 > p5=0.4 > p1=0.35...
	u, err := feature.NewUtility(sp.Profile, []float64{0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	top := BruteForceTopK(sp, u, 3)
	want := []string{"0|1", "0|2", "1|2"}
	for i, w := range want {
		if top[i].Pkg.Signature() != w {
			t.Errorf("top[%d] = %s, want %s", i, top[i].Pkg.Signature(), w)
		}
	}
	if math.Abs(top[0].Utility-0.575) > 1e-9 {
		t.Errorf("top utility = %g, want 0.575", top[0].Utility)
	}
}

func TestBruteForceTopKWithPredicate(t *testing.T) {
	sp := space(t, 2)
	u, err := feature.NewUtility(sp.Profile, []float64{0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Only singletons allowed.
	top := BruteForceTopK(sp, u, 2, SizeBetween(1, 1))
	if len(top) != 2 || top[0].Pkg.Size() != 1 || top[1].Pkg.Size() != 1 {
		t.Fatalf("predicate ignored: %v", top)
	}
	if top[0].Pkg.Signature() != "0" { // t1 scores 0.35, best singleton
		t.Errorf("best singleton = %s, want {0}", top[0].Pkg)
	}
}

func TestPredicates(t *testing.T) {
	sp := space(t, 3)
	cheap := func(it feature.Item) bool { return it.Values[0] <= 0.4 }
	p := New(0, 1, 2)
	if !MinCount(2, cheap)(sp, p) {
		t.Error("MinCount(2, cheap) should pass: t2, t3 are cheap")
	}
	if MinCount(3, cheap)(sp, p) {
		t.Error("MinCount(3, cheap) should fail")
	}
	if !MaxCount(2, cheap)(sp, p) {
		t.Error("MaxCount(2, cheap) should pass")
	}
	if MaxCount(1, cheap)(sp, p) {
		t.Error("MaxCount(1, cheap) should fail")
	}
	if !All(MinCount(1, cheap), SizeBetween(2, 3))(sp, p) {
		t.Error("All conjunctive failed")
	}
	if All(MinCount(1, cheap), SizeBetween(1, 2))(sp, p) {
		t.Error("All should fail on size")
	}
}

func TestLessOrder(t *testing.T) {
	// Shorter prefix first, then lexicographic.
	a, b, c := New(0), New(0, 1), New(1)
	if !Less(a, b) || !Less(b, c) || !Less(a, c) {
		t.Error("Less ordering broken")
	}
	if Less(b, a) || Less(c, b) {
		t.Error("Less not antisymmetric")
	}
	if Less(a, a) {
		t.Error("Less not irreflexive")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(New(1, 2), New(2, 1)) {
		t.Error("Equal should ignore order")
	}
	if Equal(New(1), New(1, 2)) {
		t.Error("Equal on different sizes")
	}
}

func TestValidateIDs(t *testing.T) {
	sp := space(t, 2)
	if err := ValidateIDs(sp, New(0, 2)); err != nil {
		t.Errorf("valid ids rejected: %v", err)
	}
	if err := ValidateIDs(sp, New(3)); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestSortScoredTieBreak(t *testing.T) {
	xs := []Scored{
		{Pkg: New(1), Utility: 0.5},
		{Pkg: New(0), Utility: 0.5},
		{Pkg: New(2), Utility: 0.9},
	}
	SortScored(xs)
	if xs[0].Pkg.Signature() != "2" || xs[1].Pkg.Signature() != "0" || xs[2].Pkg.Signature() != "1" {
		t.Errorf("SortScored order wrong: %v", xs)
	}
}

// Property: BruteForceTopK returns non-increasing utilities and at most k
// packages, each within the size bound.
func TestBruteForceTopKProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		items := make([]feature.Item, n)
		for i := range items {
			items[i] = feature.Item{ID: i, Values: []float64{r.Float64(), r.Float64()}}
		}
		maxSize := 1 + r.Intn(3)
		sp, err := feature.NewSpace(items, feature.SimpleProfile(feature.AggSum, feature.AggAvg), maxSize)
		if err != nil {
			return false
		}
		w := []float64{r.Float64()*2 - 1, r.Float64()*2 - 1}
		u, err := feature.NewUtility(sp.Profile, w)
		if err != nil {
			return false
		}
		k := 1 + r.Intn(5)
		top := BruteForceTopK(sp, u, k)
		if len(top) > k {
			return false
		}
		for i := range top {
			if top[i].Pkg.Size() > maxSize {
				return false
			}
			if i > 0 && top[i].Utility > top[i-1].Utility+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
