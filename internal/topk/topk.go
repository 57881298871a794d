// Package topk implements threshold-algorithm (TA) style sorted access
// over an in-memory pool of vectors [13]: per-dimension sorted lists, a
// round-robin Scanner for a query vector q, and the boundary (threshold)
// value τ·q that bounds every unseen vector's score. Sample maintenance
// (package maintain, paper §3.4) runs its violator search, w·q > 0, on it.
package topk

import (
	"math"
	"sort"
)

// Pool is an immutable collection of equal-dimension vectors with
// per-dimension sorted projections, enabling TA-style sorted access in
// either direction.
type Pool struct {
	vecs [][]float64
	asc  [][]int32 // asc[d] lists vector indices in ascending order of coordinate d
}

// NewPool builds the sorted projections for the given vectors. The slice is
// retained (not copied); callers must not mutate it afterwards.
func NewPool(vecs [][]float64) *Pool {
	p := &Pool{vecs: vecs}
	if len(vecs) == 0 {
		return p
	}
	p.asc = make([][]int32, len(vecs[0]))
	for d := range p.asc {
		idx := make([]int32, len(vecs))
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool {
			return vecs[idx[a]][d] < vecs[idx[b]][d]
		})
		p.asc[d] = idx
	}
	return p
}

// Len returns the number of vectors in the pool.
func (p *Pool) Len() int { return len(p.vecs) }

// Dot returns vecs[i] · q.
func (p *Pool) Dot(i int, q []float64) float64 {
	s := 0.0
	for d, v := range p.vecs[i] {
		s += v * q[d]
	}
	return s
}

// Scanner performs round-robin sorted access for a query vector q: each
// active dimension d (q[d] != 0) is traversed from its best end (largest
// coordinate first when q[d] > 0, smallest first otherwise), so the
// boundary value τ·q always upper-bounds the score of every unseen vector.
type Scanner struct {
	pool     *Pool
	q        []float64
	dims     []int // active dimensions
	pos      []int // per active dim, number of entries consumed
	tau      []float64
	cur      int // next active dim in round-robin order
	accesses int
	// Incrementally maintained threshold: thrSum = Σ τ_a·q over accessed
	// dims; unseenDims counts dims without any access yet.
	thrSum     float64
	unseenDims int
}

// NewScanner prepares a scanner for query q over the pool. It returns nil
// if q has no non-zero component or the pool is empty.
func NewScanner(p *Pool, q []float64) *Scanner {
	s := &Scanner{pool: p, q: q}
	for d, v := range q {
		if v != 0 {
			s.dims = append(s.dims, d)
		}
	}
	if len(s.dims) == 0 || p.Len() == 0 {
		return nil
	}
	s.pos = make([]int, len(s.dims))
	s.tau = make([]float64, len(s.dims))
	for i := range s.tau {
		s.tau[i] = math.Inf(1) // threshold undefined until first access per dim
	}
	s.unseenDims = len(s.dims)
	return s
}

// Next performs one sorted access and returns the vector index drawn. ok is
// false when every list is exhausted.
func (s *Scanner) Next() (idx int, ok bool) {
	n := s.pool.Len()
	for tries := 0; tries < len(s.dims); tries++ {
		a := s.cur
		s.cur = (s.cur + 1) % len(s.dims)
		if s.pos[a] >= n {
			continue
		}
		d := s.dims[a]
		list := s.pool.asc[d]
		var i int32
		if s.q[d] > 0 { // best = largest coordinate → read from the back
			i = list[n-1-s.pos[a]]
		} else {
			i = list[s.pos[a]]
		}
		s.pos[a]++
		v := s.pool.vecs[i][d]
		if math.IsInf(s.tau[a], 1) {
			s.unseenDims--
		} else {
			s.thrSum -= s.tau[a] * s.q[d]
		}
		s.tau[a] = v
		s.thrSum += v * s.q[d]
		s.accesses++
		return int(i), true
	}
	return 0, false
}

// Threshold returns τ·q, the maximum possible score of any vector not yet
// returned by Next. It is +Inf until every active dimension has been
// accessed at least once. O(1): maintained incrementally by Next.
func (s *Scanner) Threshold() float64 {
	if s.unseenDims > 0 {
		return math.Inf(1)
	}
	return s.thrSum
}

// Accesses returns the number of sorted accesses performed so far.
func (s *Scanner) Accesses() int { return s.accesses }

// CurrentRemaining returns how many entries remain unread in the list the
// next call to Next would draw from (0 if all lists are exhausted).
func (s *Scanner) CurrentRemaining() int {
	n := s.pool.Len()
	for tries := 0; tries < len(s.dims); tries++ {
		a := (s.cur + tries) % len(s.dims)
		if s.pos[a] < n {
			return n - s.pos[a]
		}
	}
	return 0
}

// CurrentUnread returns the vector indices not yet consumed from the list
// the next call to Next would draw from, in access order. Used by the
// hybrid maintenance algorithm's fallback scan (paper Algorithm 1 line 10).
func (s *Scanner) CurrentUnread() []int32 {
	n := s.pool.Len()
	for tries := 0; tries < len(s.dims); tries++ {
		a := (s.cur + tries) % len(s.dims)
		if s.pos[a] >= n {
			continue
		}
		d := s.dims[a]
		list := s.pool.asc[d]
		out := make([]int32, 0, n-s.pos[a])
		if s.q[d] > 0 {
			for i := n - 1 - s.pos[a]; i >= 0; i-- {
				out = append(out, list[i])
			}
		} else {
			out = append(out, list[s.pos[a]:]...)
		}
		return out
	}
	return nil
}
