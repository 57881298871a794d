// This file builds only on amd64 (its _amd64 suffix). The digest rests on
// the sampler's floating-point draws, and Go may fuse multiply-adds on other
// architectures but not on amd64, which can move a borderline draw and every
// round after.

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/prefgraph"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

// TestSessionDigest pins, bit for bit, what engine sessions do on the
// static serve shape (uniform 1k items, the mixed profile, φ 3, K 3, 30
// samples, the serving beam, weight quantum 0.05, the default prior and
// the shared result cache) at ψ 1 and 0.9. A fixed op stream runs eight
// sessions: a login, then six rounds of a click, an explicit pairwise
// feedback and a recommend, then a snapshot restored into a twin engine
// that recommends once. Each row hashes every slate's packages and score
// bits, every Stats, every feedback verdict, the snapshot JSON, the restore
// report and both engines' pool bits.
//
// A change to how a session stores its evidence (the preference graph, the
// constraint set, the pool's index) must leave both digests as they are.
// A change to the engine's random stream moves them, on purpose. The
// constants were captured when engines moved to the splitmix64 source,
// before the preference graph, the constraint storage and the pool's index
// changed.
func TestSessionDigest(t *testing.T) {
	items, err := dataset.Generate("uni", 1000, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	mixed := feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum)
	for _, row := range []struct {
		psi  float64
		want uint64
	}{
		{1, 0x1e88c50f51adc212},
		{0.9, 0xeb64a89dca56b3aa},
	} {
		sh, err := NewShared(Config{
			Items:          items,
			Profile:        mixed,
			MaxPackageSize: 3,
			K:              3,
			Semantics:      ranking.EXP,
			SampleCount:    30,
			Psi:            row.psi,
			WeightQuantum:  0.05,
			Search:         search.Options{MaxQueue: 128, MaxAccessed: 500},
		})
		if err != nil {
			t.Fatal(err)
		}
		d := &digest{h: fnv.New64a()}
		for s := 0; s < 8; s++ {
			sessionOps(t, sh, s, d)
		}
		if got := d.h.Sum64(); got != row.want {
			t.Errorf("ψ %v: digest %#x, want %#x", row.psi, got, row.want)
		}
	}
}

// sessionOps runs session s's op stream on sh into d. The clicker is the
// test's own stream: it picks the best shown package under a hidden vector
// drawn from the origin prior, and a random one every other round.
func sessionOps(t *testing.T, sh *Shared, s int, d *digest) {
	t.Helper()
	eng, err := sh.NewEngine(int64(s + 1))
	if err != nil {
		t.Fatal(err)
	}
	clicker := rand.New(rand.NewSource(int64(1000 + s)))
	hidden := make([]float64, sh.Space().Profile.Dims())
	for i := range hidden {
		hidden[i] = clicker.NormFloat64() * 0.5
	}
	slate, err := eng.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	d.slate(slate)
	for round := 0; round < 6; round++ {
		chosen := slate.All[0]
		if round%2 == 1 {
			chosen = slate.All[clicker.Intn(len(slate.All))]
		} else {
			for _, p := range slate.All[1:] {
				if feature.Dot(hidden, pkgspace.Vector(slate.Space, p)) > feature.Dot(hidden, pkgspace.Vector(slate.Space, chosen)) {
					chosen = p
				}
			}
		}
		if err := eng.Click(chosen, slate.All); err != nil {
			t.Fatal(err)
		}
		d.stats(eng.Stats())
		// An explicit preference between two shown packages, either way
		// round: some repeat a click's, some contradict one.
		a, b := slate.All[clicker.Intn(len(slate.All))], slate.All[clicker.Intn(len(slate.All))]
		d.verdict(eng.Feedback(a, b))
		d.stats(eng.Stats())
		if slate, err = eng.Recommend(); err != nil {
			t.Fatal(err)
		}
		d.slate(slate)
	}
	d.pool(t, eng)
	snap := eng.Snapshot()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	d.h.Write(buf.Bytes())
	twin, err := sh.NewEngine(int64(s + 101))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := twin.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(d.h, "%+v", rep)
	if slate, err = twin.Recommend(); err != nil {
		t.Fatal(err)
	}
	d.slate(slate)
	d.stats(twin.Stats())
	d.pool(t, twin)
}

// digest hashes a session's observable behaviour.
type digest struct{ h hash.Hash64 }

func (d *digest) put(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

func (d *digest) pkg(p pkgspace.Package) {
	d.put(uint64(len(p.IDs)))
	for _, id := range p.IDs {
		d.put(uint64(id))
	}
}

func (d *digest) slate(s *Slate) {
	d.put(uint64(len(s.Recommended)))
	for _, r := range s.Recommended {
		d.pkg(r.Pkg)
		d.put(math.Float64bits(r.Score))
	}
	d.put(uint64(len(s.Random)))
	for _, p := range s.Random {
		d.pkg(p)
	}
	d.put(uint64(len(s.All)))
}

func (d *digest) stats(s Stats) { fmt.Fprintf(d.h, "%+v", s) }

// verdict hashes a feedback's outcome class.
func (d *digest) verdict(err error) {
	switch {
	case err == nil:
		d.put(0)
	case errors.Is(err, prefgraph.ErrSelfPreference):
		d.put(1)
	case errors.Is(err, prefgraph.ErrCycle):
		d.put(2)
	default:
		d.put(3)
		d.h.Write([]byte(err.Error()))
	}
}

func (d *digest) pool(t *testing.T, e *Engine) {
	t.Helper()
	samples, err := e.Samples()
	if err != nil {
		t.Fatal(err)
	}
	d.put(uint64(len(samples)))
	for _, s := range samples {
		for _, w := range s.W {
			d.put(math.Float64bits(w))
		}
		d.put(math.Float64bits(s.Q))
	}
}
