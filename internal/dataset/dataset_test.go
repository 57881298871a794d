package dataset

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"toppkg/internal/feature"
)

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func columns(items []feature.Item, a, b int) (xs, ys []float64) {
	for i := range items {
		va, vb := items[i].Values[a], items[i].Values[b]
		if feature.IsNull(va) || feature.IsNull(vb) {
			continue
		}
		xs = append(xs, va)
		ys = append(ys, vb)
	}
	return xs, ys
}

func checkShape(t *testing.T, items []feature.Item, n, m int) {
	t.Helper()
	if len(items) != n {
		t.Fatalf("got %d items, want %d", len(items), n)
	}
	for i := range items {
		if items[i].ID != i {
			t.Fatalf("item %d has ID %d", i, items[i].ID)
		}
		if len(items[i].Values) != m {
			t.Fatalf("item %d has %d features, want %d", i, len(items[i].Values), m)
		}
		for j, v := range items[i].Values {
			if feature.IsNull(v) {
				continue
			}
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("item %d feature %d = %g outside [0,1]", i, j, v)
			}
		}
	}
}

func TestUNIShapeAndRange(t *testing.T) {
	items := UNI(2000, 4, rand.New(rand.NewSource(1)))
	checkShape(t, items, 2000, 4)
	xs, ys := columns(items, 0, 1)
	if r := pearson(xs, ys); math.Abs(r) > 0.08 {
		t.Errorf("UNI features correlated: r = %.3f", r)
	}
}

func TestPWRHeavyTail(t *testing.T) {
	items := PWR(5000, 2, 2.5, rand.New(rand.NewSource(2)))
	checkShape(t, items, 5000, 2)
	// Power-law: the vast majority of mass is far below the max.
	below := 0
	for i := range items {
		if items[i].Values[0] < 0.1 {
			below++
		}
	}
	frac := float64(below) / float64(len(items))
	if frac < 0.9 {
		t.Errorf("power law not heavy-tailed: %.2f below 0.1 of max", frac)
	}
}

func TestPWRAlphaDefault(t *testing.T) {
	items := PWR(100, 2, 0, rand.New(rand.NewSource(3))) // alpha ≤ 1 → default
	checkShape(t, items, 100, 2)
}

func TestCORPositivelyCorrelated(t *testing.T) {
	items := COR(3000, 3, rand.New(rand.NewSource(4)))
	checkShape(t, items, 3000, 3)
	xs, ys := columns(items, 0, 2)
	if r := pearson(xs, ys); r < 0.7 {
		t.Errorf("COR correlation too weak: r = %.3f", r)
	}
}

func TestANTNegativelyCorrelated(t *testing.T) {
	items := ANT(3000, 2, rand.New(rand.NewSource(5)))
	checkShape(t, items, 3000, 2)
	xs, ys := columns(items, 0, 1)
	if r := pearson(xs, ys); r > -0.5 {
		t.Errorf("ANT correlation not negative enough: r = %.3f", r)
	}
}

func TestNBAShape(t *testing.T) {
	items := NBA(rand.New(rand.NewSource(6)))
	checkShape(t, items, NBAPlayers, NBAFeatures)
}

func TestNBACorrelationStructure(t *testing.T) {
	items := NBA(rand.New(rand.NewSource(7)))
	// Counting stats driven by the same latent volume must correlate:
	// minutes (1) vs points (2).
	xs, ys := columns(items, 1, 2)
	if r := pearson(xs, ys); r < 0.5 {
		t.Errorf("minutes–points correlation = %.3f, want strong", r)
	}
	// Percentages are only weakly tied to volume: fg% (7) vs minutes (1).
	xs, ys = columns(items, 1, 7)
	if r := pearson(xs, ys); r > 0.9 {
		t.Errorf("minutes–fg%% correlation = %.3f, suspiciously strong", r)
	}
}

func TestNBAThreePctNulls(t *testing.T) {
	items := NBA(rand.New(rand.NewSource(8)))
	nulls := 0
	for i := range items {
		if feature.IsNull(items[i].Values[9]) {
			nulls++
		}
	}
	frac := float64(nulls) / float64(len(items))
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("three_pct null fraction = %.2f, want ≈0.25", frac)
	}
}

func TestNBASelect(t *testing.T) {
	items := NBA(rand.New(rand.NewSource(9)))
	sel := NBASelect(items, 10)
	checkShape(t, sel, NBAPlayers, 10)
	if sel2 := NBASelect(items, 99); len(sel2[0].Values) != NBAFeatures {
		t.Errorf("over-wide selection returned %d features", len(sel2[0].Values))
	}
}

// kinds lists the dataset names Generate accepts, in the paper's order.
var kinds = []string{"uni", "pwr", "cor", "ant", "nba"}

func TestGenerateDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, kind := range kinds {
		items, err := Generate(kind, 50, 3, rng)
		if err != nil {
			t.Fatalf("Generate(%s): %v", kind, err)
		}
		if kind == "nba" {
			if len(items) != NBAPlayers || len(items[0].Values) != 3 {
				t.Errorf("nba shape: %d×%d", len(items), len(items[0].Values))
			}
		} else if len(items) != 50 || len(items[0].Values) != 3 {
			t.Errorf("%s shape: %d×%d", kind, len(items), len(items[0].Values))
		}
	}
	if _, err := Generate("zipf", 10, 2, rng); err == nil {
		t.Error("unknown kind accepted")
	}
	// A feature count the kind cannot supply is an error, not items of
	// another width that a profile over m dimensions later rejects.
	for _, kind := range kinds {
		for _, m := range []int{0, -1} {
			if _, err := Generate(kind, 10, m, rng); err == nil {
				t.Errorf("Generate(%s, m=%d) accepted", kind, m)
			}
		}
	}
	if items, err := Generate("nba", 10, NBAFeatures, rng); err != nil || len(items[0].Values) != NBAFeatures {
		t.Errorf("Generate(nba, m=%d): err %v", NBAFeatures, err)
	}
	_, err := Generate("nba", 10, NBAFeatures+3, rng)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(NBAFeatures)) {
		t.Errorf("Generate(nba, m=%d) = %v, want an error naming the limit %d", NBAFeatures+3, err, NBAFeatures)
	}
}

func TestDeterminism(t *testing.T) {
	a := UNI(100, 3, rand.New(rand.NewSource(42)))
	b := UNI(100, 3, rand.New(rand.NewSource(42)))
	for i := range a {
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatal("UNI not deterministic under equal seeds")
			}
		}
	}
}

// TestDatasetsUsableAsSpaces: every generated dataset must survive space
// construction (normalization, null handling) for a typical profile.
func TestDatasetsUsableAsSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	profile := feature.SimpleProfile(feature.AggSum, feature.AggAvg, feature.AggMax)
	for _, kind := range kinds {
		items, err := Generate(kind, 200, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := feature.NewSpace(items, profile, 5); err != nil {
			t.Errorf("space over %s: %v", kind, err)
		}
	}
}
