// Tests for the catalogue admin API: epoch reporting, upsert/delete
// batches through HTTP, static-catalogue rejection, and sessions
// recommending across an admin-triggered epoch swap.
package server

import (
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"toppkg/internal/catalog"
	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/search"
	"toppkg/internal/session"
)

// liveServer builds a server over a mutable catalogue with synchronous
// rebuilds, so admin mutations are visible as soon as the response lands.
func liveServer(t *testing.T) (*catalog.Catalog, *httptest.Server) {
	t.Helper()
	cat, err := catalog.New(catalog.Config{
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 3,
		Items:          dataset.UNI(30, 2, rand.New(rand.NewSource(301))),
		Coalesce:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.NewLiveShared(core.Config{
		K:           3,
		RandomCount: 2,
		SampleCount: 60,
		Seed:        4,
		Search:      search.Options{MaxQueue: 32, MaxAccessed: 100},
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := session.NewManager(session.Config{Shared: sh, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mgr, Options{Catalog: cat}))
	t.Cleanup(ts.Close)
	return cat, ts
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestCatalogGetAndHealthzEpoch(t *testing.T) {
	_, ts := liveServer(t)
	var got struct {
		Epoch   uint64 `json:"epoch"`
		Items   int    `json:"items"`
		Mutable bool   `json:"mutable"`
	}
	if resp := getJSON(t, ts.URL+"/catalog", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /catalog = %d", resp.StatusCode)
	}
	if got.Epoch != 1 || got.Items != 30 || !got.Mutable {
		t.Fatalf("GET /catalog = %+v", got)
	}
	var hz struct {
		Catalog struct {
			Epoch   uint64 `json:"epoch"`
			Items   int    `json:"items"`
			Mutable bool   `json:"mutable"`
		} `json:"catalog"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	if hz.Catalog.Epoch != 1 || hz.Catalog.Items != 30 || !hz.Catalog.Mutable {
		t.Fatalf("healthz catalog = %+v", hz.Catalog)
	}
}

// TestHealthzReportsDeltaBuilds: a small admin batch takes the
// incremental build path and the delta/full counters surface in /healthz.
func TestHealthzReportsDeltaBuilds(t *testing.T) {
	_, ts := liveServer(t)
	v := func(x float64) *float64 { return &x }
	resp := postJSON(t, ts.URL+"/catalog/items?wait=1", UpsertRequest{Items: []ItemJSON{
		{ID: 200, Name: "hot", Values: []*float64{v(0.9), v(0.4)}},
	}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /catalog/items?wait=1 = %d, want 200 (honored wait)", resp.StatusCode)
	}
	var hz struct {
		Catalog struct {
			Rebuilds       int64 `json:"rebuilds"`
			DeltaBuilds    int64 `json:"delta_builds"`
			FullRebuilds   int64 `json:"full_rebuilds"`
			DeltaFallbacks int64 `json:"delta_fallbacks"`
		} `json:"catalog"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	c := hz.Catalog
	if c.DeltaBuilds != 1 || c.FullRebuilds != 1 || c.Rebuilds != 2 || c.DeltaFallbacks != 0 {
		t.Fatalf("healthz delta counters = %+v", c)
	}
}

func TestCatalogUpsertAndDelete(t *testing.T) {
	cat, ts := liveServer(t)
	v := func(x float64) *float64 { return &x }

	var ack struct {
		Epoch    uint64 `json:"epoch"`
		Items    int    `json:"items"`
		Upserted int    `json:"upserted"`
	}
	resp := postJSON(t, ts.URL+"/catalog/items?wait=1", UpsertRequest{Items: []ItemJSON{
		{ID: 100, Name: "fresh", Values: []*float64{v(0.5), nil}},
		{ID: 101, Name: "fresh2", Values: []*float64{v(0.1), v(0.2)}},
	}}, &ack)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /catalog/items?wait=1 = %d, want 200: the wait was honored, the mutation is complete", resp.StatusCode)
	}
	if ack.Upserted != 2 || ack.Items != 32 || ack.Epoch != 2 {
		t.Fatalf("upsert ack = %+v", ack)
	}
	ep := cat.Current()
	if d, ok := ep.DenseID(100); !ok || ep.Items()[d].Name != "fresh" {
		t.Fatalf("upserted item not in epoch: %v %v", d, ok)
	}
	if d, _ := ep.DenseID(100); !feature.IsNull(ep.Items()[d].Values[1]) {
		t.Fatal("JSON null did not map to feature.Null")
	}

	if resp := doDelete(t, ts.URL+"/catalog/items/100?wait=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /catalog/items/100?wait=1 = %d, want 200 (honored wait)", resp.StatusCode)
	}
	if _, ok := cat.Current().DenseID(100); ok {
		t.Fatal("deleted item still in epoch")
	}
	if resp := doDelete(t, ts.URL+"/catalog/items/100"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleting a missing item = %d, want 404", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/catalog/items/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("deleting a non-numeric id = %d, want 400", resp.StatusCode)
	}
}

func TestCatalogUpsertRejectsBadBatch(t *testing.T) {
	cat, ts := liveServer(t)
	v := func(x float64) *float64 { return &x }
	resp := postJSON(t, ts.URL+"/catalog/items", UpsertRequest{Items: []ItemJSON{
		{ID: 100, Values: []*float64{v(0.5)}}, // wrong dimensionality
	}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch = %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/catalog/items", UpsertRequest{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}
	if got := cat.Current().ID; got != 1 {
		t.Fatalf("rejected batches advanced the epoch to %d", got)
	}
}

func TestStaticCatalogRejectsMutations(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Epoch   uint64 `json:"epoch"`
		Mutable bool   `json:"mutable"`
	}
	if resp := getJSON(t, ts.URL+"/catalog", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /catalog = %d", resp.StatusCode)
	}
	if got.Epoch != 0 || got.Mutable {
		t.Fatalf("static GET /catalog = %+v", got)
	}
	v := func(x float64) *float64 { return &x }
	resp := postJSON(t, ts.URL+"/catalog/items", UpsertRequest{Items: []ItemJSON{
		{ID: 1, Values: []*float64{v(1), v(1)}},
	}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("static upsert = %d, want 409", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/catalog/items/1"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("static delete = %d, want 409", resp.StatusCode)
	}
}

// TestRecommendAcrossAdminSwap drives the full HTTP stack: a session
// recommends, the admin mutates the catalogue, and the next recommend
// reports the new epoch with item IDs valid in it.
func TestRecommendAcrossAdminSwap(t *testing.T) {
	cat, ts := liveServer(t)
	var s1 SlateJSON
	if resp := getJSON(t, ts.URL+"/sessions/alice/recommend", &s1); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend 1 = %d", resp.StatusCode)
	}
	if s1.Epoch != 1 {
		t.Fatalf("first slate epoch = %d, want 1", s1.Epoch)
	}
	v := func(x float64) *float64 { return &x }
	items := make([]ItemJSON, 5)
	for i := range items {
		items[i] = ItemJSON{ID: 200 + i, Name: fmt.Sprintf("drop%d", i), Values: []*float64{v(0.8), v(0.9)}}
	}
	if resp := postJSON(t, ts.URL+"/catalog/items?wait=1", UpsertRequest{Items: items}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin upsert ?wait=1 = %d, want 200", resp.StatusCode)
	}
	var s2 SlateJSON
	if resp := getJSON(t, ts.URL+"/sessions/alice/recommend", &s2); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend 2 = %d", resp.StatusCode)
	}
	if s2.Epoch != cat.Current().ID || s2.Epoch < 2 {
		t.Fatalf("post-swap slate epoch = %d, catalogue at %d", s2.Epoch, cat.Current().ID)
	}
	n := len(cat.Current().Items())
	for _, p := range append(s2.Recommended, s2.Random...) {
		for _, id := range p.Items {
			if id < 0 || id >= n {
				t.Fatalf("post-swap slate references item %d outside %d-item epoch", id, n)
			}
		}
	}
}

// TestSnapshotImportAcrossChurn drives the stable-ID snapshot path over
// HTTP: export a session's learned state, delete one of its preference's
// items through the admin API, and import the snapshot into another
// session. The import succeeds with a restore report itemizing the loss
// instead of rejecting the whole snapshot.
func TestSnapshotImportAcrossChurn(t *testing.T) {
	_, ts := liveServer(t)
	r := postJSON(t, ts.URL+"/sessions/alice/feedback",
		FeedbackRequest{Winner: []int{0, 1}, Loser: []int{2}}, nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("feedback = %d", r.StatusCode)
	}
	var snap core.Snapshot
	if resp := getJSON(t, ts.URL+"/sessions/alice/snapshot", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d", resp.StatusCode)
	}
	if snap.Version != 2 || len(snap.Preferences) != 1 {
		t.Fatalf("export: version %d, %d preferences", snap.Version, len(snap.Preferences))
	}

	// Stable ID 1 — a member of the winner — leaves the catalogue.
	if resp := doDelete(t, ts.URL+"/catalog/items/1?wait=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin delete ?wait=1 = %d, want 200", resp.StatusCode)
	}

	var report core.RestoreReport
	r2 := postJSON(t, ts.URL+"/sessions/bob/snapshot", snap, &report)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("import across churn = %d, want 200", r2.StatusCode)
	}
	if report.DroppedItems != 1 || report.DroppedPrefs != 0 || report.Preferences != 1 {
		t.Fatalf("restore report = %+v, want 1 dropped item, 0 dropped prefs, 1 surviving", report)
	}
	if report.Epoch < 2 {
		t.Fatalf("restore report epoch = %d, want the post-churn epoch", report.Epoch)
	}
}

// TestHealthzReportsRestoreDrops: preference loss on the evict/restore
// path surfaces in /healthz under sessions.restore_dropped_*.
func TestHealthzReportsRestoreDrops(t *testing.T) {
	cat, err := catalog.New(catalog.Config{
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 3,
		Items:          dataset.UNI(30, 2, rand.New(rand.NewSource(301))),
		Coalesce:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.NewLiveShared(core.Config{
		K: 3, RandomCount: 2, SampleCount: 60, Seed: 4,
		Search: search.Options{MaxQueue: 32, MaxAccessed: 100},
	}, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 1: the second session's miss evicts the first and puts its
	// snapshot in the store before answering.
	mgr, err := session.NewManager(session.Config{
		Shared: sh, Capacity: 1, Store: session.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mgr, Options{Catalog: cat}))
	t.Cleanup(ts.Close)

	r := postJSON(t, ts.URL+"/sessions/alice/feedback",
		FeedbackRequest{Winner: []int{0}, Loser: []int{1}}, nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("feedback = %d", r.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/sessions/bob/stats", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting request = %d", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/catalog/items/1?wait=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin delete ?wait=1 = %d, want 200", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/sessions/alice/stats", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("restoring request = %d", resp.StatusCode)
	}

	var hz struct {
		Sessions session.Stats `json:"sessions"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if hz.Sessions.RestoreFailures != 0 {
		t.Errorf("healthz restore_failures = %d; churn must not fail the restore", hz.Sessions.RestoreFailures)
	}
	if hz.Sessions.RestoreDroppedItems != 1 || hz.Sessions.RestoreDroppedPrefs != 1 {
		t.Errorf("healthz restore drops = (%d, %d), want (1, 1)",
			hz.Sessions.RestoreDroppedItems, hz.Sessions.RestoreDroppedPrefs)
	}
}

// TestMutationWaitParamValidation: an unparseable ?wait value is the
// client's error and must be rejected before the batch commits, not
// silently treated as async.
func TestMutationWaitParamValidation(t *testing.T) {
	cat, ts := liveServer(t)
	v := func(x float64) *float64 { return &x }
	resp := postJSON(t, ts.URL+"/catalog/items?wait=yes", UpsertRequest{Items: []ItemJSON{
		{ID: 100, Values: []*float64{v(0.5), v(0.5)}},
	}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST ?wait=yes = %d, want 400", resp.StatusCode)
	}
	if got := cat.Current().ID; got != 1 {
		t.Fatalf("rejected ?wait committed the batch (epoch %d)", got)
	}
	if resp := doDelete(t, ts.URL+"/catalog/items/1?wait=maybe"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("DELETE ?wait=maybe = %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/catalog/items?wait=false", UpsertRequest{Items: []ItemJSON{
		{ID: 100, Values: []*float64{v(0.5), v(0.5)}},
	}}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST ?wait=false = %d, want 202", resp.StatusCode)
	}
}

// TestCatalogGetStableSchema: GET /catalog and /healthz's catalog object
// emit the same key set for static and live catalogues, so clients never
// branch on `mutable` to know which fields exist.
func TestCatalogGetStableSchema(t *testing.T) {
	keySet := func(ts *httptest.Server, path string) map[string]bool {
		var got map[string]any
		if resp := getJSON(t, ts.URL+path, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if path == "/healthz" {
			got = got["catalog"].(map[string]any)
		}
		keys := make(map[string]bool, len(got))
		for k := range got {
			keys[k] = true
		}
		return keys
	}
	_, live := liveServer(t)
	_, static := testServer(t)
	for _, path := range []string{"/catalog", "/healthz"} {
		liveKeys, staticKeys := keySet(live, path), keySet(static, path)
		for k := range liveKeys {
			if !staticKeys[k] {
				t.Errorf("%s: key %q present on live but missing on static", path, k)
			}
		}
		for k := range staticKeys {
			if !liveKeys[k] {
				t.Errorf("%s: key %q present on static but missing on live", path, k)
			}
		}
		for _, k := range []string{"epoch", "items", "mutable", "upserts", "delta_builds", "delta_fallbacks",
			"partition_imbalance", "last_error", "pending"} {
			if !staticKeys[k] {
				t.Errorf("%s: stable schema is missing key %q", path, k)
			}
		}
	}
	// /healthz's catalog object is the very CatalogStatus GET /catalog
	// returns: no extra keys, none missing.
	for _, ts := range []*httptest.Server{live, static} {
		hz, cat := keySet(ts, "/healthz"), keySet(ts, "/catalog")
		if !maps.Equal(hz, cat) {
			t.Errorf("/healthz catalog keys %v differ from GET /catalog keys %v", hz, cat)
		}
	}
}

// TestHealthzSearchCacheCounters: the cache's accounting — hits, misses
// and both ways an entry leaves (evictions, invalidation_drops) — is visible
// to operators through /healthz, and the always-zero cross-epoch retention
// counters are not.
func TestHealthzSearchCacheCounters(t *testing.T) {
	_, ts := liveServer(t)
	var hz struct {
		SearchCache map[string]any `json:"search_cache"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	for _, k := range []string{"hits", "misses", "evictions", "invalidation_drops"} {
		if _, ok := hz.SearchCache[k]; !ok {
			t.Errorf("healthz search_cache is missing counter %q", k)
		}
	}
	for _, k := range []string{"retained", "reconcile_drops", "revived"} {
		if _, ok := hz.SearchCache[k]; ok {
			t.Errorf("healthz search_cache still advertises dead counter %q", k)
		}
	}
}
