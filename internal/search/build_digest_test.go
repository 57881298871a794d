package search

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/partition"
)

// TestEpochBuildDigest pins, bit for bit, what an epoch's builds produce:
// NewIndex's per-dimension lists and orphans, the skyline head set, and
// partition.Build's Assign, Reps, Mins, Maxs and AnyNull at the default
// cluster count and at 45 clusters. Every search, slate and session reads
// these, so a rewrite of a build kernel must leave the digests as they are.
// The rows cover uniform and correlated data (whose clamping makes runs of
// exact 0s and 1s, so ties), a null-bearing uniform space with orphans, and
// anti-correlated data under the monotone profile, whose skyline is large.
// The other rows' profile reads every orientation: sum and max (larger is
// better), min (smaller is better) and avg (no direction). Every row is
// above feature.BuildGrain, so a run at -cpu 1 pins the one-goroutine
// builds and one at -cpu 4 the split ones. The constants were captured from
// the one-goroutine builds before they split across cores, builds that
// kept the bits of the comparison sorts the radix kernels replaced.
func TestEpochBuildDigest(t *testing.T) {
	every := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggMin, feature.AggAvg, feature.AggSum}
	mono := []feature.Agg{feature.AggSum, feature.AggMax, feature.AggSum, feature.AggMax, feature.AggSum}
	rows := []struct {
		kind  string
		n     int
		nulls bool
		aggs  []feature.Agg
		want  uint64
	}{
		{"uni", 20000, false, every, 0xa8ba1e681d705b23},
		{"cor", 20000, false, every, 0x6cd771512795650c},
		{"uni", 20000, true, every, 0x2446bd3a7a584b53},
		{"ant", 5000, false, mono, 0xbcce91e482d95bd4},
	}
	for _, row := range rows {
		items, err := dataset.Generate(row.kind, row.n, 5, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if row.nulls {
			for i := 0; i < len(items); i += 10 {
				items[i].Values[(i/10)%5] = feature.Null
			}
			for i := 3; i < len(items); i += 997 { // null everywhere: an orphan
				for j := range items[i].Values {
					items[i].Values[j] = feature.Null
				}
			}
		}
		sp, err := feature.NewSpace(items, feature.SimpleProfile(row.aggs...), 3)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		putIDs := func(ids []int32) {
			put(uint64(len(ids)))
			for _, id := range ids {
				put(uint64(uint32(id)))
			}
		}
		ix := NewIndex(sp)
		for _, l := range ix.asc {
			putIDs(l)
		}
		putIDs(ix.orphans)
		putIDs(ix.Heads().Members())
		for _, k := range []int{0, 45} {
			p := partition.Build(sp, k)
			put(uint64(p.K))
			putIDs(p.Assign)
			putIDs(p.Reps)
			for c := 0; c < p.K; c++ {
				for d := range p.Mins[c] {
					put(math.Float64bits(p.Mins[c][d]))
					put(math.Float64bits(p.Maxs[c][d]))
					if p.AnyNull[c][d] {
						put(1)
					} else {
						put(0)
					}
				}
			}
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("%s n=%d nulls=%v: digest %#x, want %#x (heads %d)", row.kind, row.n, row.nulls, got, row.want, ix.Heads().Len())
		}
	}
}
