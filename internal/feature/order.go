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

// OrderColumns fills each lists[j] with the ids of the non-null values of
// cols[j], ascending, and sorts it as Order does, ascending by value: the
// sorted lists of an index. Each lists[j] must be exactly as long as its
// column's non-null count, and scratch at least as long as the longest
// list.
//
// Above BuildGrain items the lists sort concurrently, one per goroutine, on
// up to Workers goroutines, in rounds. A sort's working space is scratch or
// the storage of a list a later round fills, so the rounds allocate nothing
// beyond what one sort at a time would. In each round, in list order, a list
// sorts unless it lends its storage, taking scratch if that is free and
// else the storage of a later list long enough that neither sorts nor lends
// yet.
func OrderColumns(cols [][]float64, lists [][]int32, scratch []int32) {
	n := 0
	for _, col := range cols {
		n = max(n, len(col))
	}
	workers := Workers(n)
	pending := make([]int, len(lists))
	for j := range pending {
		pending[j] = j
	}
	type job struct {
		list    int
		scratch []int32
	}
	lent := make([]bool, len(lists))
	for len(pending) > 0 {
		var round []job
		var later []int
		free := true // until this round gives scratch out
		for p, j := range pending {
			if lent[j] || len(round) == workers {
				later = append(later, j)
				continue
			}
			s := job{list: j}
			if free {
				s.scratch, free = scratch, false
			} else {
				for _, o := range pending[p+1:] {
					if !lent[o] && len(lists[o]) >= len(lists[j]) {
						s.scratch, lent[o] = lists[o], true
						break
					}
				}
			}
			if s.scratch == nil {
				later = append(later, j)
				continue
			}
			round = append(round, s)
		}
		Parallel(len(round), func(w int) {
			j := round[w].list
			ids := lists[j][:0]
			for i, v := range cols[j] {
				if !IsNull(v) {
					ids = append(ids, int32(i))
				}
			}
			Order(ids, cols[j], false, round[w].scratch)
		})
		clear(lent)
		pending = later
	}
}
