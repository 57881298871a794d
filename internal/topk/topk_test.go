package topk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randVecs(rng *rand.Rand, n, d int) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()*2 - 1
		}
		vecs[i] = v
	}
	return vecs
}

func TestPoolBasics(t *testing.T) {
	vecs := [][]float64{{1, 2}, {3, 0}, {-1, 5}}
	p := NewPool(vecs)
	if p.Len() != 3 {
		t.Fatalf("pool Len = %d, want 3", p.Len())
	}
	if got := p.Dot(1, []float64{2, 1}); got != 6 {
		t.Errorf("Dot = %g, want 6", got)
	}
}

func TestEmptyPool(t *testing.T) {
	p := NewPool(nil)
	if s := NewScanner(p, []float64{1}); s != nil {
		t.Error("scanner over an empty pool should be nil")
	}
}

func TestScannerDirections(t *testing.T) {
	vecs := [][]float64{{0.1}, {0.9}, {0.5}}
	p := NewPool(vecs)
	// Positive query: first access must be the largest coordinate.
	s := NewScanner(p, []float64{1})
	i, ok := s.Next()
	if !ok || i != 1 {
		t.Errorf("desc first access = %d, want 1", i)
	}
	// Negative query: first access must be the smallest coordinate.
	s = NewScanner(p, []float64{-1})
	i, ok = s.Next()
	if !ok || i != 0 {
		t.Errorf("asc first access = %d, want 0", i)
	}
}

func TestScannerZeroQuery(t *testing.T) {
	p := NewPool([][]float64{{1, 1}})
	if s := NewScanner(p, []float64{0, 0}); s != nil {
		t.Error("scanner for zero query should be nil")
	}
}

func TestScannerThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPool(randVecs(rng, 50, 3))
	q := []float64{0.5, -0.7, 0.2}
	s := NewScanner(p, q)
	prev := s.Threshold()
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		cur := s.Threshold()
		if cur > prev+1e-9 {
			t.Fatalf("threshold increased: %g → %g", prev, cur)
		}
		prev = cur
	}
}

// TestThresholdBoundsUnseen: at every point of the scan, every unseen
// vector's score must be ≤ the threshold — the TA invariant everything
// else relies on.
func TestThresholdBoundsUnseen(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		d := 1 + rng.Intn(4)
		vecs := randVecs(rng, n, d)
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()*2 - 1
		}
		p := NewPool(vecs)
		s := NewScanner(p, q)
		if s == nil {
			return true
		}
		seen := make([]bool, n)
		for {
			i, ok := s.Next()
			if !ok {
				break
			}
			seen[i] = true
			thr := s.Threshold()
			for j := 0; j < n; j++ {
				if !seen[j] && p.Dot(j, q) > thr+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCurrentUnreadCoversUnseen(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vecs := randVecs(rng, 30, 2)
	p := NewPool(vecs)
	q := []float64{0.6, -0.4}
	s := NewScanner(p, q)
	seenByNext := map[int]bool{}
	for i := 0; i < 10; i++ {
		idx, ok := s.Next()
		if !ok {
			break
		}
		seenByNext[idx] = true
	}
	unread := s.CurrentUnread()
	inUnread := map[int]bool{}
	for _, j := range unread {
		inUnread[int(j)] = true
	}
	// Every vector never returned by Next must be in the current list's
	// unread remainder (the hybrid fallback's correctness condition).
	for i := 0; i < p.Len(); i++ {
		if !seenByNext[i] && !inUnread[i] {
			t.Fatalf("vector %d unseen but not in CurrentUnread", i)
		}
	}
	if got := s.CurrentRemaining(); got != len(unread) {
		t.Errorf("CurrentRemaining = %d, want %d", got, len(unread))
	}
}
