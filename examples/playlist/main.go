// Playlist demonstrates the full elicitation loop on a music-playlist
// scenario (the paper's Last.fm motivation): songs have price, average
// rating, play count and duration; a package is a playlist of up to six
// songs. A simulated listener with a hidden taste clicks through slates
// until the system's playlist recommendations stabilize.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"

	"toppkg/internal/core"
	"toppkg/internal/feature"
	"toppkg/internal/pkgspace"
	"toppkg/internal/ranking"
	"toppkg/internal/search"
	"toppkg/internal/simulate"
)

const (
	nSongs = 800
	seed   = 7
)

func main() {
	rng := rand.New(rand.NewSource(seed))
	songs := makeSongs(rng)

	// Profile: total price (sum), average rating (avg), total play count
	// (sum, a popularity proxy), and max duration (long epics stand out).
	profile := feature.MustProfile(4,
		feature.Entry{Feature: 0, Agg: feature.AggSum}, // price
		feature.Entry{Feature: 1, Agg: feature.AggAvg}, // rating
		feature.Entry{Feature: 2, Agg: feature.AggSum}, // plays
		feature.Entry{Feature: 3, Agg: feature.AggMax}, // duration
	)

	eng, err := core.New(core.Config{
		Items:          songs,
		Profile:        profile,
		MaxPackageSize: 6,
		K:              4,
		RandomCount:    4,
		Semantics:      ranking.EXP,
		SampleCount:    200,
		Seed:           seed,
		// Beam-bounded searches keep each round interactive.
		Search: search.Options{MaxQueue: 64, MaxAccessed: 200},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A price-sensitive listener who loves highly rated, popular songs:
	// the engine knows none of this.
	listener := &simulate.User{U: mustUtility(profile, []float64{-0.7, 0.8, 0.4, 0.1})}

	fmt.Println("playlist elicitation — hidden taste: cheap, well-rated, popular")
	fmt.Println(strings.Repeat("-", 64))
	prev := ""
	rngUser := rand.New(rand.NewSource(seed + 1))
	for round := 1; round <= 10; round++ {
		slate, err := eng.Recommend()
		if err != nil {
			log.Fatal(err)
		}
		top := slate.Recommended[0]
		fmt.Printf("round %2d: best playlist %-18s EXP=%.3f trueU=%.3f\n",
			round, top.Pkg, top.Score,
			listener.U.Score(pkgspace.Vector(eng.Space(), top.Pkg)))
		key := strings.Join(ranking.Signatures(slate.Recommended), ";")
		if key == prev {
			fmt.Println("recommendations stable — stopping.")
			break
		}
		prev = key
		pick := listener.Choose(eng.Space(), slate.All, rngUser)
		if err := eng.Click(slate.All[pick], slate.All); err != nil {
			log.Fatal(err)
		}
	}

	// Show the final playlist in human terms.
	slate, err := eng.Recommend()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal playlist:")
	var price, rating float64
	for _, id := range slate.Recommended[0].Pkg.IDs {
		s := eng.Space().Items[id]
		price += s.Values[0]
		rating += s.Values[1]
		fmt.Printf("  %-10s price $%.2f rating %.1f plays %.0fk dur %.0fs\n",
			s.Name, s.Values[0], s.Values[1]*5, s.Values[2]/1000, s.Values[3])
	}
	n := float64(slate.Recommended[0].Pkg.Size())
	fmt.Printf("total price $%.2f, avg rating %.2f/5\n", price, rating/n*5)
	st := eng.Stats()
	fmt.Printf("stats: %d feedbacks, %d samples replaced, %d active constraints\n",
		st.Feedback, st.SamplesReplaced, st.ConstraintsActive)
}

// makeSongs synthesizes a catalogue with realistic structure: ratings and
// plays correlate; price is mostly flat with premium outliers.
func makeSongs(rng *rand.Rand) []feature.Item {
	songs := make([]feature.Item, nSongs)
	for i := range songs {
		quality := rng.Float64()
		price := 0.99 + math.Floor(rng.Float64()*3)*0.3 // $0.99–$1.89 tiers
		rating := clamp(0.3+0.6*quality+rng.NormFloat64()*0.1, 0, 1)
		plays := math.Pow(quality, 2) * 90000 * (0.5 + rng.Float64())
		duration := 120 + rng.Float64()*360
		songs[i] = feature.Item{
			ID:     i,
			Name:   fmt.Sprintf("song%03d", i),
			Values: []float64{price, rating, plays, duration},
		}
	}
	return songs
}

func mustUtility(p *feature.Profile, w []float64) *feature.Utility {
	u, err := feature.NewUtility(p, w)
	if err != nil {
		panic(err)
	}
	return u
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
