package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/degenerate input not zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %g", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %g", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("Summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summary non-zero")
	}
}

func TestJaccard(t *testing.T) {
	if got := Jaccard([]string{"a", "b"}, []string{"b", "c"}); got != 1.0/3 {
		t.Errorf("Jaccard = %g, want 1/3", got)
	}
	if got := Jaccard([]string{"a"}, []string{"a"}); got != 1 {
		t.Errorf("identical sets = %g", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("empty sets = %g", got)
	}
	if got := Jaccard([]string{"a"}, nil); got != 0 {
		t.Errorf("disjoint = %g", got)
	}
	if got := Jaccard([]string{"a", "a", "b"}, []string{"a", "b"}); got != 1 {
		t.Errorf("duplicates not ignored: %g", got)
	}
}

func TestKendallTau(t *testing.T) {
	if got := KendallTau([]string{"a", "b", "c"}, []string{"a", "b", "c"}); got != 1 {
		t.Errorf("identical order τ = %g", got)
	}
	if got := KendallTau([]string{"a", "b", "c"}, []string{"c", "b", "a"}); got != -1 {
		t.Errorf("reversed order τ = %g", got)
	}
	if got := KendallTau([]string{"a", "b"}, []string{"x", "y"}); got != 0 {
		t.Errorf("disjoint τ = %g", got)
	}
	// Partial overlap: only shared elements count.
	if got := KendallTau([]string{"a", "x", "b"}, []string{"a", "b", "y"}); got != 1 {
		t.Errorf("partial overlap τ = %g", got)
	}
	// One swap in three: (3-0... pairs: ab, ac, bc with b,a swapped → 1 of 3 discordant.
	got := KendallTau([]string{"b", "a", "c"}, []string{"a", "b", "c"})
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("one swap τ = %g, want 1/3", got)
	}
}

// Property: Kendall tau is symmetric in sign under reversal of one list.
func TestKendallTauReversalProperty(t *testing.T) {
	f := func(perm []byte) bool {
		if len(perm) < 2 {
			return true
		}
		if len(perm) > 8 {
			perm = perm[:8]
		}
		seen := map[string]bool{}
		var a []string
		for _, b := range perm {
			s := string(rune('a' + b%26))
			if !seen[s] {
				seen[s] = true
				a = append(a, s)
			}
		}
		if len(a) < 2 {
			return true
		}
		rev := make([]string, len(a))
		for i := range a {
			rev[len(a)-1-i] = a[i]
		}
		return math.Abs(KendallTau(a, a)-1) < 1e-12 &&
			math.Abs(KendallTau(a, rev)+1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
