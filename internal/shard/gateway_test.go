// Gateway tests stand up real serve backends (internal/server), so they
// live in an external package.
package shard_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/search"
	"toppkg/internal/server"
	"toppkg/internal/session"
	"toppkg/internal/shard"
)

// backend is one full serve stack under test.
type backend struct {
	ts  *httptest.Server
	mgr *session.Manager
}

// newBackend builds a serve stack. Every backend built by this helper
// holds an identical catalogue (same seeded dataset), the premise of a
// sharded deployment.
func newBackend(t *testing.T, mutable bool) *backend {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	items := dataset.UNI(60, 2, rng)
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
	var (
		shared *core.Shared
		cat    *catalog.Catalog
		err    error
	)
	if mutable {
		cat, err = catalog.New(catalog.Config{
			Profile:        cfg.Profile,
			MaxPackageSize: cfg.MaxPackageSize,
			Items:          items,
			Coalesce:       2 * time.Millisecond,
			DeltaThreshold: catalog.DefaultDeltaThreshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		shared, err = core.NewLiveShared(cfg, cat)
	} else {
		shared, err = core.NewShared(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := session.NewManager(session.Config{Shared: shared, Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mgr, server.Options{Catalog: cat}))
	t.Cleanup(func() {
		ts.Close()
		if cat != nil {
			cat.Close()
		}
	})
	return &backend{ts: ts, mgr: mgr}
}

// newGateway fronts the given backends and serves the gateway itself on
// a test listener.
func newGateway(t *testing.T, cfg shard.Config, backends ...shard.Backend) *httptest.Server {
	t.Helper()
	gw, err := shard.New(cfg, backends)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
	})
	return ts
}

// httpDo is a tiny JSON HTTP helper returning status and body; a
// transport failure is fatal.
func httpDo(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, b
}

// gatewayCounters reads the gateway's proxy counters from its /healthz.
func gatewayCounters(t *testing.T, gatewayURL string) (retries, errs int64) {
	t.Helper()
	var h struct {
		Gateway struct {
			Retries int64 `json:"proxy_retries"`
			Errors  int64 `json:"proxy_errors"`
		} `json:"gateway"`
	}
	status, body := httpDo(t, http.MethodGet, gatewayURL+"/healthz", nil)
	if err := json.Unmarshal(body, &h); status != http.StatusOK || err != nil {
		t.Fatalf("gateway healthz = %d (%v): %s", status, err, body)
	}
	return h.Gateway.Retries, h.Gateway.Errors
}

// ownerOf mirrors the gateway's routing decision for assertions.
func ownerOf(id string, members ...string) string {
	return shard.NewRing(shard.DefaultVNodes, members).Owner(id)
}

func TestGatewayRoutesToOwnerShard(t *testing.T) {
	bks := map[string]*backend{
		"sa": newBackend(t, false),
		"sb": newBackend(t, false),
	}
	gts := newGateway(t, shard.Config{},
		shard.Backend{ID: "sa", URL: bks["sa"].ts.URL}, shard.Backend{ID: "sb", URL: bks["sb"].ts.URL})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("u%03d", i)
		resp, err := http.Get(gts.URL + "/sessions/" + id + "/recommend")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend %s via gateway = %d", id, resp.StatusCode)
		}
		if got, want := resp.Header.Get("X-Shard"), ownerOf(id, "sa", "sb"); got != want {
			t.Fatalf("session %s served by shard %q, ring owner is %q", id, got, want)
		}
	}
	// Residency must follow routing: every session lives on exactly its
	// owner shard, none on the other.
	for id := range bks {
		for _, info := range bks[id].mgr.List() {
			if got := ownerOf(info.ID, "sa", "sb"); got != id {
				t.Errorf("session %s resident on %s but owned by %s", info.ID, id, got)
			}
		}
	}
	if total := bks["sa"].mgr.Len() + bks["sb"].mgr.Len(); total != 20 {
		t.Errorf("%d sessions resident across shards, want 20", total)
	}

	// A request that names no session has no owner shard.
	if status, _ := httpDo(t, http.MethodGet, gts.URL+"/recommend", nil); status != http.StatusNotFound {
		t.Fatalf("session-less /recommend via gateway = %d, want 404", status)
	}
	// An invalid session ID is rejected at the gateway, before proxying.
	if status, _ := httpDo(t, http.MethodGet, gts.URL+"/sessions/no%20spaces!/recommend", nil); status != http.StatusBadRequest {
		t.Fatalf("invalid session ID = %d, want 400", status)
	}
	if proxied := bks["sa"].mgr.Len() + bks["sb"].mgr.Len(); proxied != 20 {
		t.Fatalf("%d sessions resident after the rejected requests, want 20", proxied)
	}
}

func TestGatewayDeadShardAnswers502(t *testing.T) {
	b := newBackend(t, false)
	gts := newGateway(t, shard.Config{Retries: 1, RetryBackoff: time.Millisecond}, shard.Backend{ID: "sa", URL: b.ts.URL})
	b.ts.Close() // kill the backend out from under the gateway
	status, body := httpDo(t, http.MethodGet, gts.URL+"/sessions/u1/recommend", nil)
	if status != http.StatusBadGateway {
		t.Fatalf("dead shard = %d (%s), want 502", status, body)
	}
	if !strings.Contains(string(body), "sa") {
		t.Fatalf("502 body does not name the shard: %s", body)
	}
}

// TestGatewayNeverReplaysAcceptedRequest: a backend that takes the request
// and dies before answering may already have run it, so the gateway
// answers 502 at once, even for a GET — a replayed Recommend would draw a
// new random tail and re-pin the session's feedback epoch.
func TestGatewayNeverReplaysAcceptedRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			// Take the whole request, then hang up without answering.
			_, _ = http.ReadRequest(bufio.NewReader(c))
			c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	gts := newGateway(t, shard.Config{Retries: 3, RetryBackoff: time.Millisecond}, shard.Backend{ID: "sa", URL: "http://" + ln.Addr().String()})
	status, body := httpDo(t, http.MethodGet, gts.URL+"/sessions/u1/recommend", nil)
	if status != http.StatusBadGateway {
		t.Fatalf("backend hung up = %d (%s), want 502", status, body)
	}
	if retries, errs := gatewayCounters(t, gts.URL); retries != 0 || errs != 1 {
		t.Fatalf("proxy_retries = %d, proxy_errors = %d; want 0 and 1", retries, errs)
	}
}

// TestGatewayCatalogAnswers501: the gateway fronts static catalogues only.
// Every /catalog route answers 501 and reaches no backend — proxied, a
// mutation would change one backend only.
func TestGatewayCatalogAnswers501(t *testing.T) {
	bks := []*backend{newBackend(t, true), newBackend(t, true)}
	gts := newGateway(t, shard.Config{},
		shard.Backend{ID: "sa", URL: bks[0].ts.URL}, shard.Backend{ID: "sb", URL: bks[1].ts.URL})
	upserts := func(b *backend) int64 {
		var st struct {
			Upserts int64 `json:"upserts"`
		}
		status, body := httpDo(t, http.MethodGet, b.ts.URL+"/catalog", nil)
		if err := json.Unmarshal(body, &st); status != http.StatusOK || err != nil {
			t.Fatalf("backend GET /catalog = %d (%v): %s", status, err, body)
		}
		return st.Upserts
	}
	before := []int64{upserts(bks[0]), upserts(bks[1])}
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/catalog/items?wait=1", map[string]any{"items": []map[string]any{{"id": 200, "values": []float64{0.5, 0.5}}}}},
		{http.MethodDelete, "/catalog/items/3", nil},
		{http.MethodGet, "/catalog", nil},
	} {
		status, body := httpDo(t, c.method, gts.URL+c.path, c.body)
		if status != http.StatusNotImplemented || !strings.Contains(string(body), "static catalogues only") {
			t.Fatalf("%s %s via gateway = %d (%s), want 501 naming static catalogues", c.method, c.path, status, body)
		}
	}
	for i, b := range bks {
		if got := upserts(b); got != before[i] {
			t.Fatalf("backend %d upserts %d → %d: a /catalog request reached it", i, before[i], got)
		}
	}
}
