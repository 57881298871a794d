package core

import (
	"math/rand"
	"runtime"
	"testing"

	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/gaussmix"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
)

// TestResidentSessionBytes measures what a resident session keeps: the
// live heap per engine, after two GCs, over 500 engines on the serve shape
// (uniform 1k, the mixed profile, φ 3, K 3, 30 samples, ψ 0.9, weight
// quantum 0.05, no result cache) after 0, 5 and 15 rounds. A round is a
// click by a consistent clicker, who picks the best shown package under a
// hidden vector drawn from the origin prior N(0, 0.5), and the next
// recommend. A session at rest holds no slate, so each stage starts with a
// refresh and drops its last slate. A session holds its evidence (the
// preference graph, the pool and the pinned epoch's package vectors) and
// an 8-byte generator: ≤ 4 KB at login and ≤ 12 KB after 15 rounds.
func TestResidentSessionBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("500 sessions of 15 rounds; runs without -short")
	}
	const sessions = 500
	items, err := dataset.Generate("uni", 1000, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShared(Config{
		Items:           items,
		Profile:         feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax, feature.AggMin, feature.AggSum),
		MaxPackageSize:  3,
		K:               3,
		Semantics:       ranking.EXP,
		SampleCount:     30,
		Psi:             0.9,
		WeightQuantum:   0.05,
		SearchCacheSize: -1,
		Search:          search.Options{MaxQueue: 128, MaxAccessed: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := gaussmix.Gaussian(make([]float64, 5), 0.5)
	clicker := rand.New(rand.NewSource(2))
	hidden := make([][]float64, sessions)
	for i := range hidden {
		hidden[i] = prior.Sample(clicker)
	}
	engines := make([]*Engine, sessions)
	base := liveHeap()
	rounds := 0
	for _, stage := range []struct {
		rounds int
		limit  float64 // KB per session
	}{{0, 4}, {5, -1}, {15, 12}} {
		for i := range engines {
			if engines[i] == nil {
				if engines[i], err = sh.NewEngine(int64(i + 1)); err != nil {
					t.Fatal(err)
				}
			}
			slate, err := engines[i].Recommend()
			if err != nil {
				t.Fatal(err)
			}
			for r := rounds; r < stage.rounds; r++ {
				chosen := slate.All[0]
				for _, p := range slate.All[1:] {
					if feature.Dot(hidden[i], pkgspace.Vector(slate.Space, p)) > feature.Dot(hidden[i], pkgspace.Vector(slate.Space, chosen)) {
						chosen = p
					}
				}
				if err := engines[i].Click(chosen, slate.All); err != nil {
					t.Fatal(err)
				}
				if slate, err = engines[i].Recommend(); err != nil {
					t.Fatal(err)
				}
			}
		}
		rounds = stage.rounds
		kb := float64(liveHeap()-base) / sessions / 1024
		t.Logf("%2d rounds: %.1f KB per resident session", stage.rounds, kb)
		if stage.limit > 0 && kb > stage.limit {
			t.Errorf("%d rounds: %.1f KB per session, want ≤ %v KB", stage.rounds, kb, stage.limit)
		}
	}
	runtime.KeepAlive(engines)
	runtime.KeepAlive(hidden)
}

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
