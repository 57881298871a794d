package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzReadSnapshot is the armor on the session-restore path: a corrupted
// snapshot file must never panic the server — ReadSnapshot either returns
// an error or a snapshot that survives a Write/Read round trip unchanged.
// The seed corpus under testdata/fuzz/FuzzReadSnapshot is committed; CI
// runs a short -fuzz smoke on top of the regression seeds.
func FuzzReadSnapshot(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":2,"samples":[[0.5]],"weights":[1,2]}`))
	f.Add([]byte(`{"version":2,"preferences":[{"winner":[0],"loser":[1]}],"samples":[[0.1,0.2]],"weights":[1]}`))
	f.Add([]byte(`{"version":2,"samples":[[1e308,-1e308]],"weights":[0]}`))
	f.Add([]byte(`{"version":2,"stats":{"Feedback":-1}}`))
	f.Add([]byte("\x00\x01\x02garbage"))
	f.Add([]byte(`{"version":2,"samples":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`))
	f.Add([]byte(`{"version":2,"epoch":7,"preferences":[{"winner":[5,900],"loser":[7]}],"samples":[[0.1,0.2]],"weights":[1]}`))
	f.Add([]byte(`{"version":2,"epoch":18446744073709551615,"preferences":[{"winner":[2147483647],"loser":[0]}]}`))
	f.Add([]byte(`{"version":2,"samples":[[0.5]],"weights":[]}`))
	f.Add([]byte(`{"version":2,"preferences":[{"winner":[],"loser":[1]}]}`))
	// Malformed versions: a v3, a negative one and the v1 above must be
	// rejected; a v2 with an epoch and one without must both round-trip.
	f.Add([]byte(`{"version":3,"epoch":1,"preferences":[{"winner":[0],"loser":[1]}]}`))
	f.Add([]byte(`{"version":-1}`))
	f.Add([]byte(`{"version":2,"epoch":9,"preferences":[{"winner":[0],"loser":[1]}]}`))
	f.Add([]byte(`{"version":2,"preferences":[{"winner":[3],"loser":[1]}],"stats":{"RestoreDroppedItems":5}}`))
	f.Add([]byte(`{"version":2,"epoch":4,"space_hash":1234567890123456789,"preferences":[{"winner":[0],"loser":[1]}],"samples":[[0.1,0.2]],"weights":[1]}`))
	// Current files carry the pool's constraints hash; a hash beside an
	// empty pool or without any preferences must round-trip too.
	f.Add([]byte(`{"version":2,"constraints_hash":9876543210123456789,"preferences":[{"winner":[0],"loser":[1]}],"samples":[[0.1,0.2]],"weights":[1]}`))
	f.Add([]byte(`{"version":2,"constraints_hash":18446744073709551615,"preferences":[]}`))
	f.Add([]byte(`{"version":2,"constraints_hash":1,"samples":[[0.5,0.5]],"weights":[0.5]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly: that is the contract
		}
		if s.Version != 2 {
			t.Fatalf("accepted a version %d snapshot: %q", s.Version, data)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s); err != nil {
			t.Fatalf("accepted snapshot failed to encode: %v", err)
		}
		s2, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q", err, data)
		}
		j1, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := json.Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("round trip changed the snapshot:\nbefore %s\nafter  %s", j1, j2)
		}
	})
}

// TestRestoreRejectsHostileSnapshots: snapshots that decode fine but do
// not fit the engine's space must error out of Restore, never panic —
// this is what stands between a corrupted store file and a crashed
// serving process. Unknown stable IDs are churn (dropped, see
// TestRestoreV2DropsVanished), so the hostile class is structural
// corruption, not unknown items.
func TestRestoreRejectsHostileSnapshots(t *testing.T) {
	eng := persistEngine(t) // 2-dim space over 30 items
	for name, snap := range map[string]*Snapshot{
		"nil":               nil,
		"wrong version":     {Version: 99},
		"future version":    {Version: 3},
		"v1":                {Version: 1, Preferences: []PreferencePair{{Winner: []int{0}, Loser: []int{1}}}},
		"v2 dim mismatch":   {Version: 2, Samples: [][]float64{{1, 2, 3}}, Weights: []float64{1}},
		"v2 count mismatch": {Version: 2, Samples: [][]float64{{1, 2}}, Weights: nil},
		"v2 empty package":  {Version: 2, Preferences: []PreferencePair{{Winner: nil, Loser: []int{0}}}},
		"v2 self loop":      {Version: 2, Preferences: []PreferencePair{{Winner: []int{0}, Loser: []int{0}}}},
		// Pools the sampler can never produce: a vector outside the weight
		// box ranks with non-finite scores, and importance weights must be
		// finite, positive and sum finitely.
		"v2 sample outside box":      {Version: 2, Samples: [][]float64{{1e308, 1e308}}, Weights: []float64{1}},
		"v2 sample just outside box": {Version: 2, Samples: [][]float64{{0.5, -1.0000001}}, Weights: []float64{1}},
		"v2 NaN sample":              {Version: 2, Samples: [][]float64{{math.NaN(), 0}}, Weights: []float64{1}},
		"v2 zero weight":             {Version: 2, Samples: [][]float64{{0.1, 0.2}}, Weights: []float64{0}},
		"v2 negative weight":         {Version: 2, Samples: [][]float64{{0.1, 0.2}}, Weights: []float64{-3}},
		"v2 infinite weight":         {Version: 2, Samples: [][]float64{{0.1, 0.2}}, Weights: []float64{math.Inf(1)}},
		"v2 NaN weight":              {Version: 2, Samples: [][]float64{{0.1, 0.2}}, Weights: []float64{math.NaN()}},
		"v2 weights overflow": {Version: 2, Samples: [][]float64{{0.1, 0.2}, {0.3, 0.4}},
			Weights: []float64{math.MaxFloat64, math.MaxFloat64}},
		"v2 contradiction, no churn": {Version: 2, Preferences: []PreferencePair{
			// A direct cycle with every item present cannot be blamed on
			// remap shrinkage — it was written contradictory.
			{Winner: []int{0}, Loser: []int{1}},
			{Winner: []int{1}, Loser: []int{0}},
		}},
	} {
		if _, err := eng.Restore(snap); err == nil {
			t.Errorf("%s: hostile snapshot accepted", name)
		}
	}
}
