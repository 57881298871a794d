// Package hdrhist is a fixed-footprint, concurrency-safe latency
// histogram in the HDR style: log-spaced buckets cover five decades of
// latency (50µs to several minutes) with bounded relative error, so p50,
// p95 and p99 can be read off a live serving process without keeping
// every sample. Recording is one atomic add; there are no locks on the
// hot path.
//
// The per-route HTTP metrics middleware (internal/server) records into
// this type and /healthz reports its Snapshot.
package hdrhist

import (
	"math"
	"sync/atomic"
	"time"
)

// bucketCount is the number of log-spaced buckets. With growth g per
// bucket and a floor of minLatency, bucket i spans
// [minLatency·g^i, minLatency·g^(i+1)); the top bucket additionally
// absorbs everything beyond the covered range.
const bucketCount = 80

// minLatency is the lower bound of bucket 0. Anything faster lands in
// bucket 0 — at serving granularity, 50µs is "instant".
const minLatency = 50 * time.Microsecond

// growth is the per-bucket multiplier. 80 buckets at 1.2× span
// 50µs · 1.2^80 ≈ 100 minutes, with ≤20% relative quantile error —
// coarser than a true HDR histogram but plenty for p50/p95/p99 of an
// HTTP route.
const growth = 1.2

// invLogGrowth caches 1/ln(growth) for the index computation.
var invLogGrowth = 1 / math.Log(growth)

// Histogram accumulates duration samples. The zero value is ready to
// use; all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [bucketCount]atomic.Int64
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d <= minLatency {
		return 0
	}
	i := int(math.Log(float64(d)/float64(minLatency)) * invLogGrowth)
	if i >= bucketCount {
		return bucketCount - 1
	}
	return i
}

// bucketUpper returns the upper bound of bucket i (its exclusive edge).
func bucketUpper(i int) time.Duration {
	return time.Duration(float64(minLatency) * math.Pow(growth, float64(i+1)))
}

// bucketLower returns the lower bound of bucket i.
func bucketLower(i int) time.Duration {
	if i == 0 {
		return 0
	}
	return time.Duration(float64(minLatency) * math.Pow(growth, float64(i)))
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(1)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Mean returns the arithmetic mean of all samples (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Quantile returns an estimate of the q-quantile (0 < q ≤ 1) by linear
// interpolation inside the bucket holding the target rank. The estimate
// never exceeds the recorded maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the ceil(q·n)-th smallest sample.
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			if max := h.Max(); hi > max {
				hi = max
			}
			if hi < lo {
				return lo
			}
			frac := float64(rank-seen) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		seen += c
	}
	return h.Max() // unreachable unless counters race; max is still safe
}

// Snapshot is a point-in-time summary, shaped for JSON reporting. All
// latencies are in milliseconds, matching how serving numbers are read.
type Snapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Snap summarizes the histogram.
func (h *Histogram) Snap() Snapshot {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Snapshot{
		Count:  h.Count(),
		MeanMs: ms(h.Mean()),
		P50Ms:  ms(h.Quantile(0.50)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
	}
}
