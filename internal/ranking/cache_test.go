package ranking

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"toppkg/internal/pkgspace"
	"toppkg/internal/search"
)

func res(id int) search.Result {
	return search.Result{Packages: []pkgspace.Scored{{Pkg: pkgspace.New(id), Utility: float64(id)}}}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", res(1))
	c.Put("b", res(2))
	if _, ok := c.Get("a"); !ok { // a is now MRU
		t.Fatal("a missing")
	}
	c.Put("c", res(3)) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used a evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("newest entry c evicted")
	}
	st := c.Stats()
	if st.Size != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hit accounting: %+v", st)
	}
}

func TestCachePutReplaces(t *testing.T) {
	c := NewCache(4)
	c.Put("a", res(1))
	c.Put("a", res(9))
	got, ok := c.Get("a")
	if !ok || got.Packages[0].Utility != 9 {
		t.Errorf("Put did not replace: %+v ok=%v", got, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(4)
	c.Put("a", res(1))
	c.Put("b", res(2))
	c.Invalidate()
	for _, k := range []string{"a", "b"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("entry %q survived Invalidate", k)
		}
	}
	c.Invalidate() // an empty cache drops nothing more
	if st := c.Stats(); st.Size != 0 || st.InvalidationDrops != 2 || st.Evictions != 0 {
		t.Errorf("after Invalidate: %+v, want size 0 and 2 invalidation drops", st)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	if got := NewCache(0).Stats().Capacity; got != DefaultCacheSize {
		t.Errorf("NewCache(0) capacity = %d", got)
	}
	if got := NewCache(-3).Stats().Capacity; got != DefaultCacheSize {
		t.Errorf("NewCache(-3) capacity = %d", got)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run with
// -race. Values under contention must still be the ones put for their key.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%40)
				if r, ok := c.Get(k); ok {
					if want := float64(i % 40); r.Packages[0].Utility != want {
						t.Errorf("key %s holds utility %g", k, r.Packages[0].Utility)
						return
					}
				} else {
					c.Put(k, res(i%40))
				}
				if i%97 == 0 {
					c.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestWeightKey(t *testing.T) {
	a := []float64{0.25, -1, 0}
	b := []float64{0.25, -1, math.Copysign(0, -1)} // -0 folds into +0
	if WeightKey(a) != WeightKey(b) {
		t.Error("-0 and +0 keyed differently")
	}
	if WeightKey(a) == WeightKey([]float64{0.25, -1, 1e-300}) {
		t.Error("distinct vectors collided")
	}
	if WeightKey(a) == WeightKey(a[:2]) {
		t.Error("prefix collided with full vector")
	}
}

func TestCanonical(t *testing.T) {
	w := []float64{0.1004, -0.2496}
	if got := Canonical(w, 0); &got[0] != &w[0] {
		t.Error("quantum 0 must be the identity")
	}
	got := Canonical(w, 0.001)
	if got[0] != 0.1 || math.Abs(got[1]+0.25) > 1e-12 {
		t.Errorf("Canonical(%v, 0.001) = %v", w, got)
	}
	if w[0] != 0.1004 {
		t.Error("Canonical mutated its input")
	}
}
