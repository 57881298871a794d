// Package pkgspace defines packages (sets of items), the package space, an
// exhaustive enumerator with a brute-force top-k oracle (used as the ground
// truth in tests and as the naive baseline the paper argues is prohibitive),
// and schema predicates (paper §7).
package pkgspace

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"toppkg/internal/feature"
)

// Package is a set of items identified by their dense IDs, kept sorted so
// that equal packages have equal signatures.
type Package struct {
	// IDs are the member item IDs in ascending order.
	IDs []int
}

// New builds a package from item IDs, sorting and de-duplicating them.
func New(ids ...int) Package {
	cp := append([]int(nil), ids...)
	slices.Sort(cp)
	out := cp[:0]
	for i, v := range cp {
		if i == 0 || v != cp[i-1] {
			out = append(out, v)
		}
	}
	return Package{IDs: out}
}

// Random draws a uniformly random size in [1, maxSize], clamped to n, and
// that many distinct items of [0, n) — the random exploration packages of
// §2.2.
func Random(rng *rand.Rand, n, maxSize int) Package {
	size := min(1+rng.Intn(maxSize), n)
	picked := make(map[int]bool, size)
	ids := make([]int, 0, size)
	for len(ids) < size {
		if id := rng.Intn(n); !picked[id] {
			picked[id] = true
			ids = append(ids, id)
		}
	}
	return New(ids...)
}

// Size returns the number of items in the package.
func (p Package) Size() int { return len(p.IDs) }

// Signature returns a canonical string key, e.g. "3|17|42". Packages are
// equal iff their signatures are equal; signatures are also used as the
// paper's deterministic tie-breaker.
func (p Package) Signature() string {
	var b strings.Builder
	for i, id := range p.IDs {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

// String renders the package as "{3, 17, 42}".
func (p Package) String() string {
	parts := make([]string, len(p.IDs))
	for i, id := range p.IDs {
		parts[i] = strconv.Itoa(id)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Vector computes the normalized aggregate feature vector of the package in
// space s.
func Vector(s *feature.Space, p Package) []float64 {
	st := feature.NewState(s)
	for _, id := range p.IDs {
		st.Add(s.Items[id])
	}
	return st.Vector()
}

// Predicate is a schema constraint on candidate packages (paper §7), e.g.
// "at least two items must be novels". Predicates are evaluated when
// candidate packages are generated; packages failing any predicate are
// discarded.
type Predicate func(s *feature.Space, p Package) bool

// MinCount returns a predicate requiring at least min members satisfying
// the item test.
func MinCount(min int, test func(feature.Item) bool) Predicate {
	return func(s *feature.Space, p Package) bool {
		n := 0
		for _, id := range p.IDs {
			if test(s.Items[id]) {
				n++
				if n >= min {
					return true
				}
			}
		}
		return n >= min
	}
}

// All combines predicates conjunctively.
func All(preds ...Predicate) Predicate {
	return func(s *feature.Space, p Package) bool {
		for _, pr := range preds {
			if !pr(s, p) {
				return false
			}
		}
		return true
	}
}

// Enumerate calls fn for every non-empty package of size at most
// s.MaxSize, in lexicographic ID order, until fn returns false. It is
// exponential in the item count and exists as the ground-truth oracle for
// tests, the naive baseline, and the search's all-zero-weight answer.
func Enumerate(s *feature.Space, fn func(Package) bool) {
	n := len(s.Items)
	ids := make([]int, 0, s.MaxSize)
	var rec func(start int) bool
	rec = func(start int) bool {
		for i := start; i < n; i++ {
			ids = append(ids, i)
			if !fn(Package{IDs: append([]int(nil), ids...)}) {
				return false
			}
			if len(ids) < s.MaxSize && !rec(i+1) {
				return false
			}
			ids = ids[:len(ids)-1]
		}
		return true
	}
	rec(0)
}

// Scored pairs a package with its utility under a fixed weight vector.
type Scored struct {
	Pkg     Package
	Utility float64
}

// BruteForceTopK exhaustively enumerates the package space and returns the
// top-k packages by utility under u, ties broken by ascending signature
// (the paper's deterministic tie-breaker). Predicates, when given, filter
// candidates. Intended for tests and tiny spaces only.
func BruteForceTopK(s *feature.Space, u *feature.Utility, k int, preds ...Predicate) []Scored {
	if k <= 0 {
		return nil
	}
	var all []Scored
	pred := All(preds...)
	Enumerate(s, func(p Package) bool {
		if len(preds) == 0 || pred(s, p) {
			all = append(all, Scored{Pkg: p, Utility: u.Score(Vector(s, p))})
		}
		return true
	})
	SortScored(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// SortScored orders by descending utility, ties by ascending signature.
func SortScored(xs []Scored) {
	slices.SortFunc(xs, func(a, b Scored) int {
		switch {
		case a.Utility != b.Utility:
			if a.Utility > b.Utility {
				return -1
			}
			return 1
		case Less(a.Pkg, b.Pkg):
			return -1
		case Less(b.Pkg, a.Pkg):
			return 1
		}
		return 0
	})
}

// Less is the deterministic package tie-break order: shorter signature
// first, then lexicographic on the ID sequence.
func Less(a, b Package) bool {
	for i := 0; i < len(a.IDs) && i < len(b.IDs); i++ {
		if a.IDs[i] != b.IDs[i] {
			return a.IDs[i] < b.IDs[i]
		}
	}
	return len(a.IDs) < len(b.IDs)
}

// Equal reports whether two packages contain exactly the same items.
func Equal(a, b Package) bool {
	if len(a.IDs) != len(b.IDs) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return false
		}
	}
	return true
}

// ValidateIDs checks that every ID in p indexes an item of s.
func ValidateIDs(s *feature.Space, p Package) error {
	for _, id := range p.IDs {
		if id < 0 || id >= len(s.Items) {
			return fmt.Errorf("pkgspace: item id %d out of range [0,%d)", id, len(s.Items))
		}
	}
	return nil
}
