package feature

import "math"

// radixBits is the digit width of Order's passes: six digits (the last one
// 9 bits wide) cover a 64-bit key, and one digit's counts (8 KB) stay in L1.
// Wider digits would cut a pass but spill the counts; narrower ones add one.
// Order's counting pass is written out for these six digits.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixPasses  = 6
)

// OrderKey maps a non-NaN float64 to the uint64 whose unsigned order is the
// float's numeric order, with −0 mapped as +0: positive floats get their
// sign bit set, negative floats have every bit flipped. It is the key Order
// sorts by, for callers that select rather than sort.
func OrderKey(v float64) uint64 {
	b := math.Float64bits(v)
	if v == 0 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Order sorts ids by keys[id] — ascending, or descending when desc — in
// linear passes: a stable least-significant-digit radix sort over each key's
// order-preserving bits (OrderKey), skipping the digits every key shares.
// −0 and +0 compare equal, and equal keys keep the order their ids arrive
// in, so ids that arrive ascending leave each run of equal keys ascending:
// the (key, id) order of a comparison sort that breaks ties by id. keys must
// hold no NaN (nulls are the caller's to leave out). scratch is working
// space of len(ids) entries that callers sorting several lists can share;
// Order allocates it when it is shorter.
func Order(ids []int32, keys []float64, desc bool, scratch []int32) {
	n := len(ids)
	if n < 2 {
		return
	}
	if cap(scratch) < n {
		scratch = make([]int32, n)
	}
	scratch = scratch[:n]
	var flip uint64
	if desc {
		flip = ^flip
	}
	var counts [radixPasses][radixBuckets]int32
	for _, id := range ids {
		k := OrderKey(keys[id]) ^ flip
		counts[0][k&(radixBuckets-1)]++
		counts[1][k>>radixBits&(radixBuckets-1)]++
		counts[2][k>>(2*radixBits)&(radixBuckets-1)]++
		counts[3][k>>(3*radixBits)&(radixBuckets-1)]++
		counts[4][k>>(4*radixBits)&(radixBuckets-1)]++
		counts[5][k>>(5*radixBits)]++
	}
	first := OrderKey(keys[ids[0]]) ^ flip
	src, dst := ids, scratch
	for p := range counts {
		shift := p * radixBits
		c := &counts[p]
		if c[first>>shift&(radixBuckets-1)] == int32(n) {
			continue // every key shares this digit: the pass would copy
		}
		var sum int32
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for _, id := range src {
			b := (OrderKey(keys[id]) ^ flip) >> shift & (radixBuckets - 1)
			dst[c[b]] = id
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}
