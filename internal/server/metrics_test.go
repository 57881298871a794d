// Tests for the per-route HTTP metrics: counts and status classes must
// account for every request, a session route answers only under
// /sessions/{id}/, and /healthz must surface the same numbers a
// MetricsSnapshot reports.
package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestMetricsCountsAndStatusClasses(t *testing.T) {
	_, ts := testServer(t)

	// 2 OK recommends, one 400 click, two 404s (unknown path, and a
	// session route that names no session: neither is a registered route,
	// so neither may be counted).
	for _, id := range []string{"alice", "bob"} {
		if resp := getJSON(t, ts.URL+"/sessions/"+id+"/recommend", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend %s = %d", id, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/recommend", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("session-less recommend = %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/sessions/alice/click", ClickRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty click = %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/nosuchroute", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", resp.StatusCode)
	}

	var hz struct {
		HTTP map[string]RouteMetrics `json:"http"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	rec := hz.HTTP["recommend"]
	if rec.Requests != 2 || rec.Status2x != 2 || rec.Status4x != 0 || rec.Status5x != 0 {
		t.Errorf("recommend metrics = %+v, want 2 requests all 2xx", rec)
	}
	if rec.Latency.Count != 2 || rec.Latency.P50Ms <= 0 || rec.Latency.P99Ms < rec.Latency.P50Ms {
		t.Errorf("recommend latency = %+v", rec.Latency)
	}
	click := hz.HTTP["click"]
	if click.Requests != 1 || click.Status4x != 1 || click.Status2x != 0 {
		t.Errorf("click metrics = %+v, want 1 request, 1 4xx", click)
	}
	// Unused registered routes report zero with a stable key set.
	if fb, ok := hz.HTTP["feedback"]; !ok || fb.Requests != 0 {
		t.Errorf("feedback metrics = %+v (present %v), want zeroed entry", fb, ok)
	}
	for _, route := range []string{"healthz", "sessions.list", "sessions.delete", "catalog.get",
		"catalog.upsert", "catalog.delete", "recommend", "click", "feedback", "stats",
		"snapshot.get", "snapshot.post"} {
		if _, ok := hz.HTTP[route]; !ok {
			t.Errorf("healthz http is missing route %q", route)
		}
	}
}

// TestMetricsAccountForEveryRequest: route by route, /healthz counts every
// request sent with its status class, and the sum over routes equals the
// total — the invariant bench/'s checkCounts output check holds every
// benchmark run to. The second input is a mutable server: the session and
// catalogue routes a churn run uses, one of them answering 2xx and 4xx.
func TestMetricsAccountForEveryRequest(t *testing.T) {
	type request struct {
		route, method, path string
		body                any
		status              int
	}
	get := func(route, path string) request {
		return request{route, http.MethodGet, path, nil, http.StatusOK}
	}
	v := func(x float64) *float64 { return &x }
	_, static := testServer(t)
	_, live := liveServer(t)
	for _, tc := range []struct {
		name string
		ts   *httptest.Server
		reqs []request
	}{
		{"static", static, []request{
			get("recommend", "/sessions/u/recommend"), get("recommend", "/sessions/u/recommend"),
			get("recommend", "/sessions/u/recommend"), get("recommend", "/sessions/u/recommend"),
			get("recommend", "/sessions/u/recommend"), get("stats", "/sessions/u/stats"),
		}},
		{"mutable", live, []request{
			get("recommend", "/sessions/u/recommend"),
			{"click", http.MethodPost, "/sessions/u/click", ClickRequest{Chosen: []int{1, 2}, Shown: [][]int{{1, 2}, {3, 4}}}, http.StatusOK},
			{"feedback", http.MethodPost, "/sessions/u/feedback", FeedbackRequest{Winner: []int{5}, Loser: []int{6}}, http.StatusOK},
			{"catalog.upsert", http.MethodPost, "/catalog/items?wait=1", UpsertRequest{Items: []ItemJSON{{ID: 200, Values: []*float64{v(0.9), v(0.4)}}}}, http.StatusOK},
			get("recommend", "/sessions/u/recommend"),
			{"catalog.delete", http.MethodDelete, "/catalog/items/200", nil, http.StatusAccepted},
			get("catalog.get", "/catalog"),
			{"sessions.delete", http.MethodDelete, "/sessions/u", nil, http.StatusNoContent},
			{"sessions.delete", http.MethodDelete, "/sessions/u", nil, http.StatusNotFound},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[string]RouteMetrics{}
			for _, rq := range tc.reqs {
				var resp *http.Response
				switch rq.method {
				case http.MethodGet:
					resp = getJSON(t, tc.ts.URL+rq.path, nil)
				case http.MethodPost:
					resp = postJSON(t, tc.ts.URL+rq.path, rq.body, nil)
				default:
					resp = doDelete(t, tc.ts.URL+rq.path)
				}
				if resp.StatusCode != rq.status {
					t.Fatalf("%s %s = %d, want %d", rq.method, rq.path, resp.StatusCode, rq.status)
				}
				w := want[rq.route]
				w.Requests++
				if rq.status >= 400 {
					w.Status4x++
				} else {
					w.Status2x++
				}
				want[rq.route] = w
			}

			var hz struct {
				HTTP map[string]RouteMetrics `json:"http"`
			}
			if resp := getJSON(t, tc.ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz = %d", resp.StatusCode)
			}
			// The healthz scrape itself is recorded only after its handler
			// returns, so it is not part of its own snapshot.
			var total int64
			for route, got := range hz.HTTP {
				total += got.Requests
				got.Latency = want[route].Latency
				if got != want[route] {
					t.Errorf("route %s metrics = %+v, want %+v", route, got, want[route])
				}
			}
			if total != int64(len(tc.reqs)) {
				t.Errorf("metrics account for %d requests, sent %d", total, len(tc.reqs))
			}
		})
	}
}
