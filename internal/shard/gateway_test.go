// Gateway tests live in an external package: internal/server depends on
// shard (drain protocol), so tests that stand up real backends must not
// be part of package shard itself.
package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
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
	cat *catalog.Catalog
}

// newBackend builds a serve stack with shard identity id. Every backend
// built by this helper holds an identical catalogue (same seeded
// dataset), the replicated-catalogue premise of a sharded deployment.
func newBackend(t *testing.T, id string, store session.Store, mutable bool) *backend {
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
	mgr, err := session.NewManager(session.Config{Shared: shared, Capacity: 1024, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mgr, server.Options{Catalog: cat, ShardID: id}))
	t.Cleanup(func() {
		ts.Close()
		if cat != nil {
			cat.Close()
		}
		mgr.Close()
	})
	return &backend{ts: ts, mgr: mgr, cat: cat}
}

// newGateway fronts the given backends and serves the gateway itself on
// a test listener.
func newGateway(t *testing.T, cfg shard.Config, ids []string, bks map[string]*backend) (*shard.Gateway, *httptest.Server) {
	t.Helper()
	var list []shard.Backend
	for _, id := range ids {
		list = append(list, shard.Backend{ID: id, URL: bks[id].ts.URL})
	}
	gw, err := shard.New(cfg, list)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
	})
	return gw, ts
}

// httpTry is a tiny JSON HTTP helper returning status and body; it is
// safe off the test goroutine.
func httpTry(method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// httpDo is httpTry for the test goroutine: a transport failure is fatal.
func httpDo(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	status, b, err := httpTry(method, url, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return status, b
}

// ownerOf mirrors the gateway's routing decision for assertions.
func ownerOf(id string, members ...string) string {
	return shard.NewRing(shard.DefaultVNodes, members).Owner(id)
}

// sessionOwnedBy finds a session ID the given ring membership routes to
// the wanted shard.
func sessionOwnedBy(t *testing.T, want string, members ...string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("u%05d", i)
		if ownerOf(id, members...) == want {
			return id
		}
	}
	t.Fatalf("no session routed to %s in 100k candidates", want)
	return ""
}

func TestGatewayRoutesToOwnerShard(t *testing.T) {
	bks := map[string]*backend{
		"sa": newBackend(t, "sa", nil, false),
		"sb": newBackend(t, "sb", nil, false),
	}
	_, gts := newGateway(t, shard.Config{}, []string{"sa", "sb"}, bks)
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

	// The default session (no path ID, no header) routes consistently too.
	status, _ := httpDo(t, http.MethodGet, gts.URL+"/recommend", nil)
	if status != http.StatusOK {
		t.Fatalf("legacy /recommend via gateway = %d", status)
	}

	// An invalid session ID is rejected at the gateway, before proxying.
	req, err := http.NewRequest(http.MethodGet, gts.URL+"/recommend", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Session-ID", "no spaces!")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid session ID = %d, want 400", resp.StatusCode)
	}
}

// shardHashes scrapes idmap_hash/space_hash/items from a backend.
func shardHashes(t *testing.T, b *backend) (idmap, space string, items int) {
	t.Helper()
	var h struct {
		Catalog struct {
			IDMapHash string `json:"idmap_hash"`
			SpaceHash string `json:"space_hash"`
			Items     int    `json:"items"`
		} `json:"catalog"`
	}
	status, body := httpDo(t, http.MethodGet, b.ts.URL+"/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h.Catalog.IDMapHash, h.Catalog.SpaceHash, h.Catalog.Items
}

func assertConverged(t *testing.T, bks map[string]*backend) {
	t.Helper()
	var refID, refSP string
	refItems, first := 0, true
	for id, b := range bks {
		idm, sp, items := shardHashes(t, b)
		if idm == "" {
			t.Fatalf("shard %s reports no idmap_hash", id)
		}
		if first {
			refID, refSP, refItems, first = idm, sp, items, false
			continue
		}
		if idm != refID || sp != refSP || items != refItems {
			t.Fatalf("shard %s diverged: (%s,%s,%d) vs (%s,%s,%d)",
				id, idm, sp, items, refID, refSP, refItems)
		}
	}
}

func TestGatewayMutationLogReplication(t *testing.T) {
	bks := map[string]*backend{
		"sa": newBackend(t, "sa", nil, true),
		"sb": newBackend(t, "sb", nil, true),
		"sc": newBackend(t, "sc", nil, true),
	}
	_, gts := newGateway(t, shard.Config{}, []string{"sa", "sb", "sc"}, bks)

	// Synchronous mutation: 200 only after every shard applied it.
	status, body := httpDo(t, http.MethodPost, gts.URL+"/catalog/items?wait=1",
		map[string]any{"items": []map[string]any{{"id": 200, "name": "new", "values": []float64{0.5, 0.5}}}})
	if status != http.StatusOK {
		t.Fatalf("upsert via gateway = %d: %s", status, body)
	}
	var ack struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Applied != 3 {
		t.Fatalf("upsert ack %s (err %v), want applied=3", body, err)
	}
	assertConverged(t, bks)
	if _, _, items := shardHashes(t, bks["sa"]); items != 61 {
		t.Fatalf("items = %d after insert, want 61", items)
	}

	// Asynchronous mutation: 202 now, convergence via the status endpoint.
	status, body = httpDo(t, http.MethodDelete, gts.URL+"/catalog/items/200", nil)
	if status != http.StatusAccepted {
		t.Fatalf("async delete via gateway = %d: %s", status, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cs struct {
			Pending   bool `json:"pending"`
			Converged bool `json:"converged"`
		}
		status, body = httpDo(t, http.MethodGet, gts.URL+"/catalog", nil)
		if status != http.StatusOK {
			t.Fatalf("gateway catalog status = %d", status)
		}
		if err := json.Unmarshal(body, &cs); err != nil {
			t.Fatal(err)
		}
		if !cs.Pending && cs.Converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never converged: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertConverged(t, bks)
	if _, _, items := shardHashes(t, bks["sa"]); items != 60 {
		t.Fatalf("items = %d after delete, want 60", items)
	}

	// A deterministically invalid mutation is rejected identically on
	// every shard and relayed as the client's error — it must not wedge
	// the log or break convergence.
	status, body = httpDo(t, http.MethodPost, gts.URL+"/catalog/items?wait=1",
		map[string]any{"items": []map[string]any{{"id": 201, "values": []float64{1, 2, 3, 4}}}})
	if status < 400 || status >= 500 {
		t.Fatalf("invalid upsert via gateway = %d (%s), want a 4xx relay", status, body)
	}
	// The log stays live after the rejection.
	status, _ = httpDo(t, http.MethodPost, gts.URL+"/catalog/items?wait=1",
		map[string]any{"items": []map[string]any{{"id": 202, "values": []float64{0.1, 0.9}}}})
	if status != http.StatusOK {
		t.Fatalf("upsert after rejected batch = %d", status)
	}
	assertConverged(t, bks)
}

// TestGatewayAddShardMigratesBitIdentically is the acceptance anchor for
// rebalancing: a session whose owner changes when a shard joins must,
// after migrating through the shared store, produce byte-for-byte the
// recommendation an unmigrated replay of the same history produces. Both
// sides run the identical op sequence, flush through a store, restore,
// and then recommend — the migrated side across two processes via the
// gateway, the control side on a single backend via /admin/drain.
func TestGatewayAddShardMigratesBitIdentically(t *testing.T) {
	// The session must route to "sa" alone, then to "sb" once it joins.
	id := sessionOwnedBy(t, "sb", "sa", "sb")

	ops := func(t *testing.T, base, sid string) {
		status, _ := httpDo(t, http.MethodGet, base+"/sessions/"+sid+"/recommend", nil)
		if status != http.StatusOK {
			t.Fatalf("recommend = %d", status)
		}
		for _, fb := range []map[string][]int{
			{"winner": {0}, "loser": {1}},
			{"winner": {2}, "loser": {3}},
		} {
			status, body := httpDo(t, http.MethodPost, base+"/sessions/"+sid+"/feedback", fb)
			if status != http.StatusOK {
				t.Fatalf("feedback = %d: %s", status, body)
			}
		}
	}

	// Migrated path: ops through the gateway land on sa; AddShard(sb)
	// drains the session to the shared store; the next recommend routes
	// to sb, which restores it.
	store := session.NewMemStore()
	bks := map[string]*backend{
		"sa": newBackend(t, "sa", store, false),
		"sb": newBackend(t, "sb", store, false),
	}
	gw, gts := newGateway(t, shard.Config{}, []string{"sa"}, bks)
	ops(t, gts.URL, id)
	if bks["sa"].mgr.Len() != 1 {
		t.Fatalf("session not resident on sa before rebalance")
	}
	flushed, err := gw.AddShard("sb", bks["sb"].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if flushed != 1 {
		t.Fatalf("rebalance flushed %d sessions, want 1", flushed)
	}
	status, migrated := httpDo(t, http.MethodGet, gts.URL+"/sessions/"+id+"/recommend", nil)
	if status != http.StatusOK {
		t.Fatalf("post-migration recommend = %d", status)
	}
	if bks["sb"].mgr.Len() != 1 || bks["sa"].mgr.Len() != 0 {
		t.Fatalf("session did not move: sa=%d sb=%d", bks["sa"].mgr.Len(), bks["sb"].mgr.Len())
	}
	if st := bks["sb"].mgr.Stats(); st.Restored != 1 {
		t.Fatalf("new owner restored %d sessions, want 1 (state must come from the snapshot)", st.Restored)
	}

	// Control path: the same history on one unmigrated backend, flushed
	// and restored in place through its own store.
	controlStore := session.NewMemStore()
	control := newBackend(t, "ctl", controlStore, false)
	ops(t, control.ts.URL, id)
	status, _ = httpDo(t, http.MethodPost, control.ts.URL+shard.DrainPath,
		shard.DrainRequest{Self: "ctl", Shards: []string{"elsewhere"}})
	if status != http.StatusOK {
		t.Fatalf("control drain = %d", status)
	}
	status, replay := httpDo(t, http.MethodGet, control.ts.URL+"/sessions/"+id+"/recommend", nil)
	if status != http.StatusOK {
		t.Fatalf("control recommend = %d", status)
	}

	if !bytes.Equal(migrated, replay) {
		t.Fatalf("post-rebalance recommendation differs from unmigrated replay:\nmigrated: %s\nreplay:   %s", migrated, replay)
	}
}

func TestGatewayRemoveShardDrainsSessions(t *testing.T) {
	store := session.NewMemStore()
	bks := map[string]*backend{
		"sa": newBackend(t, "sa", store, false),
		"sb": newBackend(t, "sb", store, false),
	}
	_, gts := newGateway(t, shard.Config{}, []string{"sa", "sb"}, bks)
	// Touch sessions until both shards hold some, remembering one that
	// landed on the shard we are about to remove.
	victim := ""
	for i := 0; bks["sa"].mgr.Len() == 0 || bks["sb"].mgr.Len() == 0; i++ {
		if i >= 50 {
			t.Fatal("could not populate both shards")
		}
		sid := fmt.Sprintf("u%03d", i)
		status, body := httpDo(t, http.MethodPost, gts.URL+"/sessions/"+sid+"/feedback",
			map[string][]int{"winner": {0}, "loser": {1}})
		if status != http.StatusOK {
			t.Fatalf("feedback = %d: %s", status, body)
		}
		if ownerOf(sid, "sa", "sb") == "sb" {
			victim = sid
		}
	}
	onB := bks["sb"].mgr.Len()
	if victim == "" {
		t.Fatal("no session landed on sb")
	}
	status, body := httpDo(t, http.MethodDelete, gts.URL+"/gateway/shards/sb", nil)
	if status != http.StatusOK {
		t.Fatalf("remove shard = %d: %s", status, body)
	}
	var out struct {
		Flushed int  `json:"flushed"`
		Drained bool `json:"drained"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Drained || out.Flushed != onB {
		t.Fatalf("removal drained=%v flushed=%d, want true/%d", out.Drained, out.Flushed, onB)
	}
	if bks["sb"].mgr.Len() != 0 {
		t.Fatalf("%d sessions still resident on removed shard", bks["sb"].mgr.Len())
	}
	// The departed shard's sessions now route to sa and restore there —
	// the one we know had feedback must come back with it.
	if ownerOf(victim, "sa") != "sa" {
		t.Fatal("sanity: single-member ring must own everything")
	}
	var stats struct {
		Feedback int `json:"feedback"`
	}
	status, body = httpDo(t, http.MethodGet, gts.URL+"/sessions/"+victim+"/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats after removal = %d", status)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Feedback == 0 {
		t.Fatalf("victim session lost its feedback across the drain: %s", body)
	}
}

func TestGatewayDeadShardAnswers502(t *testing.T) {
	b := newBackend(t, "sa", nil, false)
	gw, err := shard.New(shard.Config{Retries: 1, RetryBackoff: time.Millisecond},
		[]shard.Backend{{ID: "sa", URL: b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gts := httptest.NewServer(gw)
	defer gts.Close()
	b.ts.Close() // kill the backend out from under the gateway
	status, body := httpDo(t, http.MethodGet, gts.URL+"/sessions/u1/recommend", nil)
	if status != http.StatusBadGateway {
		t.Fatalf("dead shard = %d (%s), want 502", status, body)
	}
	if !strings.Contains(string(body), "sa") {
		t.Fatalf("502 body does not name the shard: %s", body)
	}
}

func TestDrainEndpointRejectsWrongShard(t *testing.T) {
	b := newBackend(t, "sa", session.NewMemStore(), false)
	status, body := httpDo(t, http.MethodPost, b.ts.URL+shard.DrainPath,
		shard.DrainRequest{Self: "sb", Shards: []string{"sa", "sb"}})
	if status != http.StatusBadRequest {
		t.Fatalf("misaddressed drain = %d (%s), want 400", status, body)
	}
}

// TestGatewayFlagsMisregisteredShard: a backend serving -shard-id s1 but
// registered with the gateway as s0 is unhealthy, with an error naming both
// IDs, and the gateway reports itself degraded.
func TestGatewayFlagsMisregisteredShard(t *testing.T) {
	bks := map[string]*backend{"s0": newBackend(t, "s1", nil, false)}
	_, gts := newGateway(t, shard.Config{}, []string{"s0"}, bks)
	status, body := httpDo(t, http.MethodGet, gts.URL+"/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("gateway healthz = %d (%s)", status, body)
	}
	var h struct {
		Status string                       `json:"status"`
		Shards map[string]shard.ShardHealth `json:"shards"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	sh := h.Shards["s0"]
	if sh.Healthy || !strings.Contains(sh.Error, `"s1"`) || !strings.Contains(sh.Error, `"s0"`) {
		t.Fatalf("misregistered shard view = %+v, want unhealthy naming s1 and s0", sh)
	}
	if h.Status != "degraded" {
		t.Fatalf("gateway status = %q, want degraded", h.Status)
	}
}
