package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/search"
	"toppkg/internal/session"
)

// smokeClient drives a server from goroutines other than the test's: a
// failed request is counted and the first one kept, never fatal.
type smokeClient struct {
	base        string
	ops, failed atomic.Int64
	once        sync.Once
	firstFail   string
	batches     int // churn batches; read after the churn goroutine exits
}

// do sends one JSON request and decodes a 2xx answer into out (when
// non-nil).
func (c *smokeClient) do(method, path string, body, out any) bool {
	err := func() error {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("%d: %s", resp.StatusCode, b)
		}
		if err == nil && out != nil {
			err = json.Unmarshal(b, out)
		}
		return err
	}()
	c.ops.Add(1)
	if err != nil {
		c.failed.Add(1)
		c.once.Do(func() { c.firstFail = fmt.Sprintf("%s %s -> %v", method, path, err) })
	}
	return err == nil
}

// episode is one user's visit: a few recommend → click rounds, then
// logout. Clicking the highest-scored recommended package agrees with what
// the engine has learned, which keeps the constraint set satisfiable.
func (c *smokeClient) episode(id string, rounds int) {
	for ; rounds > 0; rounds-- {
		var slate SlateJSON
		if !c.do(http.MethodGet, "/sessions/"+id+"/recommend", nil, &slate) || len(slate.Recommended) == 0 {
			break
		}
		best := slate.Recommended[0]
		for _, p := range slate.Recommended[1:] {
			if p.Score > best.Score {
				best = p
			}
		}
		var shown [][]int
		for _, p := range append(slate.Recommended, slate.Random...) {
			shown = append(shown, p.Items)
		}
		c.do(http.MethodPost, "/sessions/"+id+"/click", ClickRequest{Chosen: best.Items, Shown: shown}, nil)
	}
	c.do(http.MethodDelete, "/sessions/"+id, nil, nil)
}

// churn reprices 4 of the catalogue's 60 seeded items every 15 ms; an
// extra stable ID joins on every fourth batch and leaves two batches
// later, so epochs see the ID set change as well as values.
func (c *smokeClient) churn(until time.Time) {
	const items, extraSlots = 60, 16
	rng := rand.New(rand.NewSource(3))
	item := func(id int) map[string]any {
		return map[string]any{"id": id, "values": []float64{rng.Float64(), rng.Float64()}}
	}
	tick := time.NewTicker(15 * time.Millisecond)
	defer tick.Stop()
	for ; time.Now().Before(until); c.batches++ {
		<-tick.C
		batch := make([]map[string]any, 4, 5)
		for i := range batch {
			batch[i] = item(rng.Intn(items))
		}
		switch c.batches % 4 {
		case 1:
			batch = append(batch, item(items+c.batches%extraSlots))
		case 3:
			c.do(http.MethodDelete, fmt.Sprintf("/catalog/items/%d", items+(c.batches-2)%extraSlots), nil, nil)
		}
		c.do(http.MethodPost, "/catalog/items", map[string]any{"items": batch}, nil)
	}
}

// TestServeSmokeChurn is the repository's whole-stack race smoke with
// churn: one server over a live catalogue (2 ms coalescing), eight workers
// running session episodes and one goroutine mutating the catalogue, under
// the race detector in CI. Every request must succeed, and once the
// catalogue settles no build may have failed.
func TestServeSmokeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load test")
	}
	items := dataset.UNI(60, 2, rand.New(rand.NewSource(7)))
	cfg := core.Config{
		Items:          items,
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 3,
		K:              2,
		RandomCount:    1,
		SampleCount:    40,
		Seed:           5,
		Search:         search.Options{MaxQueue: 32, MaxAccessed: 100},
	}
	cat, err := catalog.New(catalog.Config{
		Profile:        cfg.Profile,
		MaxPackageSize: cfg.MaxPackageSize,
		Items:          items,
		Coalesce:       2 * time.Millisecond,
		DeltaThreshold: catalog.DefaultDeltaThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat.Close)
	shared, err := core.NewLiveShared(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := session.NewManager(session.Config{Shared: shared, Capacity: 1024, Store: session.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mgr, Options{Catalog: cat}))
	t.Cleanup(ts.Close)

	const workers = 8
	c := &smokeClient{base: ts.URL}
	until := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(until) {
				// Worker w owns sessions w, w+8, …: no user races themselves.
				c.episode(fmt.Sprintf("s%06d", w+workers*rng.Intn(25)), 2+rng.Intn(3))
			}
		}(w)
	}
	go func() {
		defer wg.Done()
		c.churn(until)
	}()
	wg.Wait()

	if n := c.failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed, first: %s", n, c.ops.Load(), c.firstFail)
	}
	if c.ops.Load() == 0 || c.batches == 0 {
		t.Fatalf("%d ops, %d churn batches: the smoke did not run sessions beside churn", c.ops.Load(), c.batches)
	}
	// The last batches may still be building: wait until none is pending.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var st CatalogStatus
		if resp := getJSON(t, ts.URL+"/catalog", &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /catalog = %d", resp.StatusCode)
		}
		if !st.Pending {
			if st.BuildErrors != 0 {
				t.Fatalf("%d catalogue builds failed, last: %s", st.BuildErrors, st.LastError)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("catalogue never settled: %+v", st)
		}
	}
	t.Logf("serve smoke: %d ops, %d churn batches", c.ops.Load(), c.batches)
}
