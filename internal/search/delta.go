package search

import (
	"cmp"
	"slices"

	"toppkg/internal/feature"
)

// NewIndexFrom derives the index over sp from a parent epoch's index with
// one O(n) merge per dimension the batch touches, instead of NewIndex's
// O(n log n) sort per dimension.
//
// remap maps parent dense IDs to sp dense IDs: remap[i] < 0 means parent
// item i is not carried over (deleted, or re-entering with new values via
// added). added lists the sp dense IDs of items not carried from the
// parent — brand new, or existing items whose values changed. The caller
// guarantees two invariants the catalogue's stable-ID dense ordering
// provides: remap is order-preserving over carried items (i < j with both
// carried implies remap[i] < remap[j]), and carried items have identical
// values in both spaces. Under them, renumbering a parent dimension list
// through remap preserves its (value, dense ID) order, so the new list is
// that renumbered list merged with the sorted batch (mergeList), not a
// sort.
//
// When the remap is the identity (no carried item shifted), dimensions the
// batch does not touch share the parent's arrays copy-on-write, and so
// does the orphan list when the batch leaves it alone.
func NewIndexFrom(parent *Index, sp *feature.Space, remap []int32, added []int32) *Index {
	dims := sp.Dims()
	ix := &Index{space: sp, asc: make([][]int32, dims)}
	psp := parent.space

	// identity: every carried parent item keeps its dense ID, so untouched
	// arrays remain valid as-is and can be shared.
	identity := true
	for i, v := range remap {
		if v >= 0 && v != int32(i) {
			identity = false
			break
		}
	}
	// Which raw features gain or lose non-null values.
	fc := sp.Profile.FeatureCount()
	removedTouch := make([]bool, fc)
	for i, v := range remap {
		if v >= 0 {
			continue
		}
		for f := 0; f < fc; f++ {
			if !feature.IsNull(psp.Col(f)[i]) {
				removedTouch[f] = true
			}
		}
	}
	addedTouch := make([]bool, fc)
	for _, id := range added {
		for f := 0; f < fc; f++ {
			if !feature.IsNull(sp.Col(f)[id]) {
				addedTouch[f] = true
			}
		}
	}

	var batch []int32 // per-dimension scratch
	for d := 0; d < dims; d++ {
		e := sp.Profile.Entry(d)
		if e.Agg == feature.AggNull {
			continue
		}
		f := e.Feature
		if identity && !removedTouch[f] && !addedTouch[f] {
			ix.asc[d] = parent.asc[d] // untouched: share copy-on-write
			continue
		}
		batch = batch[:0]
		col := sp.Col(f)
		for _, id := range added {
			if !feature.IsNull(col[id]) {
				batch = append(batch, id)
			}
		}
		ix.asc[d] = mergeList(parent.asc[d], remap, batch, cmpByValue(col))
	}

	ix.orphans = deriveOrphans(parent, sp, remap, added, identity)
	return ix
}

// mergeList derives a list from its parent's: the parent entries
// renumbered through remap (removed ones dropped; the order holds, since
// the remap is monotone over carried items) merged with batch, which it
// sorts by order first. order compares sp dense IDs: (value, dense ID) for
// a dimension list, dense ID for the orphan list. The renumbered entries
// are written behind room for the batch, and each batch entry's place is
// found by binary search, so the merge moves runs with copy and makes
// O(batch·log n) comparisons instead of one per entry.
func mergeList(old, remap, batch []int32, order func(a, b int32) int) []int32 {
	slices.SortFunc(batch, order)
	out := make([]int32, len(batch), len(old)+len(batch))
	for _, pid := range old {
		if nid := remap[pid]; nid >= 0 {
			out = append(out, nid)
		}
	}
	// Every write lands before the first unread carried entry: w counts
	// the carried entries moved plus fewer than len(batch) batch entries.
	carried, w := out[len(batch):], 0
	for _, id := range batch {
		k, _ := slices.BinarySearchFunc(carried, id, order)
		w += copy(out[w:], carried[:k])
		out[w] = id
		w++
		carried = carried[k:]
	}
	return out
}

// deriveOrphans maintains the list of items null on every profile feature.
// Shares the parent's slice when the delta leaves it untouched under an
// identity remap.
func deriveOrphans(parent *Index, sp *feature.Space, remap, added []int32, identity bool) []int32 {
	isOrphan := func(id int32) bool {
		for d := 0; d < sp.Dims(); d++ {
			e := sp.Profile.Entry(d)
			if e.Agg == feature.AggNull {
				continue
			}
			if !feature.IsNull(sp.Col(e.Feature)[id]) {
				return false
			}
		}
		return true
	}
	var addedOrphans []int32
	for _, id := range added {
		if isOrphan(id) {
			addedOrphans = append(addedOrphans, id)
		}
	}
	removedOrphan := false
	for _, pid := range parent.orphans {
		if remap[pid] < 0 {
			removedOrphan = true
			break
		}
	}
	if identity && !removedOrphan && len(addedOrphans) == 0 {
		return parent.orphans
	}
	return mergeList(parent.orphans, remap, addedOrphans, cmp.Compare[int32])
}
