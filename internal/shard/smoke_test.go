package shard_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toppkg/internal/server"
	"toppkg/internal/session"
	"toppkg/internal/shard"
)

// smokeClient drives the gateway from goroutines other than the test's:
// a failed request is counted and the first one kept, never fatal.
type smokeClient struct {
	base        string
	ops, failed atomic.Int64
	once        sync.Once
	firstFail   string
	batches     int // churn batches; read after the churn goroutine exits
}

// do sends one request and decodes a 2xx answer into out (when non-nil).
func (c *smokeClient) do(method, path string, body, out any) bool {
	status, b, err := httpTry(method, c.base+path, body)
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("%d: %s", status, b)
	}
	if err == nil && out != nil {
		err = json.Unmarshal(b, out)
	}
	c.ops.Add(1)
	if err != nil {
		c.failed.Add(1)
		c.once.Do(func() { c.firstFail = fmt.Sprintf("%s %s -> %v", method, c.base+path, err) })
	}
	return err == nil
}

// episode is one user's visit: a few recommend → click rounds, then
// logout. Clicking the highest-scored recommended package agrees with what
// the engine has learned, which keeps the constraint set satisfiable.
func (c *smokeClient) episode(id string, rounds int) {
	for ; rounds > 0; rounds-- {
		var slate server.SlateJSON
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
		c.do(http.MethodPost, "/sessions/"+id+"/click", server.ClickRequest{Chosen: best.Items, Shown: shown}, nil)
	}
	c.do(http.MethodDelete, "/sessions/"+id, nil, nil)
}

// churn reprices 4 of the backends' 60 seeded items every 15 ms; an extra
// stable ID joins on every fourth batch and leaves two batches later, so
// epochs see the ID set change as well as values.
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

// TestShardSmokeThreeBackends is the repository's whole-stack race smoke
// with churn: three mutable backends, each the full live-catalogue serving
// stack, behind a gateway, session episodes and catalogue mutations flowing
// through it under the race detector in CI. At quiesce every request must
// have succeeded and every shard must hold the same catalogue (identical
// idmap/space hashes) — the mutation log's whole contract.
func TestShardSmokeThreeBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load test")
	}
	store := session.NewMemStore()
	bks := map[string]*backend{
		"s0": newBackend(t, "s0", store, true),
		"s1": newBackend(t, "s1", store, true),
		"s2": newBackend(t, "s2", store, true),
	}
	_, gts := newGateway(t, shard.Config{}, []string{"s0", "s1", "s2"}, bks)

	const workers = 8
	c := &smokeClient{base: gts.URL}
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
		t.Fatalf("%d ops, %d churn batches: the smoke did not exercise the mutation log under traffic", c.ops.Load(), c.batches)
	}
	// The last batches may still be building: wait until the gateway
	// reports the log delivered and the shards converged.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var cs struct{ Pending, Converged bool }
		status, body := httpDo(t, http.MethodGet, gts.URL+"/catalog", nil)
		if err := json.Unmarshal(body, &cs); status == http.StatusOK && err == nil && !cs.Pending && cs.Converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("catalogue never settled: %d %s", status, body)
		}
	}
	assertConverged(t, bks)
	t.Logf("sharded smoke: %d ops, %d churn batches across 3 shards", c.ops.Load(), c.batches)
}
