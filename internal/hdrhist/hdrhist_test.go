package hdrhist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not all-zero: %+v", h.Snap())
	}
}

func TestSingleSample(t *testing.T) {
	var h Histogram
	h.Record(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Max(); got != 3*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got <= 0 || got > 3*time.Millisecond {
			t.Fatalf("q%.2f = %v, want in (0, 3ms]", q, got)
		}
	}
}

// TestQuantileAccuracy: the bucketed estimate must stay within one
// bucket's relative error (20%) of the exact sample quantile across a
// realistic latency spread.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]time.Duration, 20000)
	for i := range samples {
		// Log-uniform between 100µs and 1s — the range a serving stack sees.
		exp := rng.Float64() * 4 // 10^0 .. 10^4 (in units of 100µs)
		d := time.Duration(float64(100*time.Microsecond) * pow10(exp))
		samples[i] = d
		h.Record(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		lo := time.Duration(float64(exact) * 0.75)
		hi := time.Duration(float64(exact) * 1.30)
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, exact %v: outside [%v, %v]", q, got, exact, lo, hi)
		}
	}
}

func pow10(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 10
		x--
	}
	// linear-ish interpolation of the fractional decade is fine for test data
	return r * (1 + 9*x/10*x) // monotone in x on [0,1)
}

func TestQuantileNeverExceedsMax(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	h.Record(90 * time.Millisecond)
	if got, max := h.Quantile(1), h.Max(); got > max {
		t.Fatalf("q1.0 = %v exceeds max %v", got, max)
	}
}

func TestOutOfRangeSamples(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)   // clamped to 0
	h.Record(0)              // below minLatency
	h.Record(10 * time.Hour) // beyond the top bucket
	h.Record(3 * time.Hour)  // also top bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(1); got > 10*time.Hour {
		t.Fatalf("q1.0 = %v", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Intn(int(time.Second))))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total != workers*per {
		t.Fatalf("bucket sum = %d, want %d", total, workers*per)
	}
}

func TestSnapshotShape(t *testing.T) {
	var h Histogram
	h.Record(2 * time.Millisecond)
	h.Record(4 * time.Millisecond)
	s := h.Snap()
	if s.Count != 2 || s.MaxMs < 3 || s.P50Ms <= 0 || s.P99Ms < s.P50Ms {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for d := time.Microsecond; d < time.Hour; d = d * 3 / 2 {
		i := bucketIndex(d)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %v: %d < %d", d, i, prev)
		}
		if i < 0 || i >= bucketCount {
			t.Fatalf("bucketIndex(%v) = %d out of range", d, i)
		}
		prev = i
	}
}
