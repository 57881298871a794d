package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"toppkg/internal/core"
	"toppkg/internal/dataset"
	"toppkg/internal/feature"
	"toppkg/internal/search"
	"toppkg/internal/session"
)

func testShared(t *testing.T) *core.Shared {
	t.Helper()
	rng := rand.New(rand.NewSource(300))
	sh, err := core.NewShared(core.Config{
		Items:          dataset.UNI(40, 2, rng),
		Profile:        feature.SimpleProfile(feature.AggSum, feature.AggAvg),
		MaxPackageSize: 3,
		K:              3,
		RandomCount:    2,
		SampleCount:    80,
		Seed:           4,
		Search:         search.Options{MaxQueue: 32, MaxAccessed: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func testServerWith(t *testing.T, capacity int, store session.Store, opts Options) (*session.Manager, *httptest.Server) {
	t.Helper()
	mgr, err := session.NewManager(session.Config{Shared: testShared(t), Capacity: capacity, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mgr, opts))
	t.Cleanup(ts.Close)
	return mgr, ts
}

func testServer(t *testing.T) (*session.Manager, *httptest.Server) {
	return testServerWith(t, 64, session.NewMemStore(), Options{})
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response of %s: %v", url, err)
		}
	}
	return resp
}

func TestRecommendEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var slate SlateJSON
	resp := getJSON(t, ts.URL+"/sessions/alice/recommend", &slate)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(slate.Recommended) != 3 || len(slate.Random) != 2 {
		t.Fatalf("slate shape: %d recommended, %d random", len(slate.Recommended), len(slate.Random))
	}
	for _, p := range slate.Recommended {
		if len(p.Items) == 0 || len(p.Names) != len(p.Items) {
			t.Errorf("bad package payload: %+v", p)
		}
	}
}

// TestClickFlow clicks under the default body cap, and under a negative
// MaxBodyBytes, which must select the default too rather than a zero cap.
func TestClickFlow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxBody int64
	}{{"default", 0}, {"negative_max_body", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := testServerWith(t, 64, session.NewMemStore(), Options{MaxBodyBytes: tc.maxBody})
			var slate SlateJSON
			getJSON(t, ts.URL+"/sessions/alice/recommend", &slate)

			shown := make([][]int, 0, len(slate.Recommended)+len(slate.Random))
			for _, p := range slate.Recommended {
				shown = append(shown, p.Items)
			}
			for _, p := range slate.Random {
				shown = append(shown, p.Items)
			}
			var st core.Stats
			resp := postJSON(t, ts.URL+"/sessions/alice/click", ClickRequest{Chosen: shown[1], Shown: shown}, &st)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("click status %d", resp.StatusCode)
			}
			if st.Feedback == 0 {
				t.Error("click produced no feedback")
			}
			resp = getJSON(t, ts.URL+"/sessions/alice/recommend", &slate)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-click recommend status %d", resp.StatusCode)
			}
		})
	}
}

func TestFeedbackConflict(t *testing.T) {
	_, ts := testServer(t)
	resp := postJSON(t, ts.URL+"/sessions/a/feedback", FeedbackRequest{Winner: []int{0, 1}, Loser: []int{2}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/sessions/a/feedback", FeedbackRequest{Winner: []int{2}, Loser: []int{0, 1}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("contradiction status %d, want 409", resp.StatusCode)
	}
}

// errorShape decodes the error body and requires the {"error": "..."}
// contract.
func errorShape(t *testing.T, resp *http.Response) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body["error"] == "" {
		t.Errorf("error body missing 'error' field: %v", body)
	}
	return body["error"]
}

// TestWriteJSONEncodeError: a value JSON cannot encode answers 500 with
// the error shape, never an empty 200.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"score": math.Inf(1)})
	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	errorShape(t, resp)

	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"score": 1.5})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"score\":1.5}\n" {
		t.Fatalf("encodable value: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestErrorPaths table-drives the HTTP error surface: unknown sessions,
// malformed bodies, invalid IDs on every session route, wrong methods,
// oversized payloads. Every JSON-producing error must carry the
// {"error": ...} shape.
func TestErrorPaths(t *testing.T) {
	bigShown := make([][]int, 0, 40000)
	for i := 0; i < 40000; i++ {
		bigShown = append(bigShown, []int{i % 40, (i + 1) % 40})
	}
	oversized, err := json.Marshal(ClickRequest{Chosen: []int{0}, Shown: bigShown})
	if err != nil {
		t.Fatal(err)
	}
	oversizedFeedback, err := json.Marshal(FeedbackRequest{Winner: make([]int, 40000), Loser: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantJSON   bool // JSON error shape expected (mux-level 404/405 are text)
	}{
		{"delete unknown session", "DELETE", "/sessions/ghost", "", http.StatusNotFound, true},
		{"invalid session id", "GET", "/sessions/bad%20id/stats", "", http.StatusBadRequest, true},
		{"dotfile session id", "GET", "/sessions/.hidden/stats", "", http.StatusBadRequest, true},
		{"malformed click JSON", "POST", "/sessions/a/click", "{bad", http.StatusBadRequest, true},
		{"empty click", "POST", "/sessions/a/click", "{}", http.StatusBadRequest, true},
		{"click out-of-range item", "POST", "/sessions/a/click", `{"chosen":[999],"shown":[[1]]}`, http.StatusBadRequest, true},
		{"click empty package", "POST", "/sessions/a/click", `{"chosen":[1],"shown":[[]]}`, http.StatusBadRequest, true},
		{"click chosen not shown", "POST", "/sessions/z/click", `{"chosen":[5],"shown":[[1],[2]]}`, http.StatusBadRequest, true},
		{"click empty shown package", "POST", "/sessions/z/click", `{"chosen":[1],"shown":[[1],[2],[]]}`, http.StatusBadRequest, true},
		{"click out-of-range shown item", "POST", "/sessions/z/click", `{"chosen":[1],"shown":[[1],[2],[3,999]]}`, http.StatusBadRequest, true},
		{"feedback empty package", "POST", "/sessions/y/feedback", `{"winner":[1],"loser":[]}`, http.StatusBadRequest, true},
		{"feedback out-of-range item", "POST", "/sessions/a/feedback", `{"winner":[999],"loser":[1]}`, http.StatusBadRequest, true},
		{"feedback self-preference", "POST", "/sessions/a/feedback", `{"winner":[1],"loser":[1]}`, http.StatusBadRequest, true},
		{"feedback self-preference after dedup", "POST", "/sessions/a/feedback", `{"winner":[1,1],"loser":[1]}`, http.StatusBadRequest, true},
		{"feedback package over φ", "POST", "/sessions/y/feedback", `{"winner":[1,2,3,4,5,6,7],"loser":[8]}`, http.StatusBadRequest, true},
		{"malformed snapshot", "POST", "/sessions/a/snapshot", "not json", http.StatusBadRequest, true},
		{"snapshot wrong version", "POST", "/sessions/a/snapshot", `{"version":99}`, http.StatusBadRequest, true},
		{"snapshot sample outside the weight box", "POST", "/sessions/u2/snapshot", `{"version":2,"samples":[[1e308,1e308]],"weights":[1]}`, http.StatusBadRequest, true},
		{"oversized click payload", "POST", "/sessions/a/click", string(oversized), http.StatusRequestEntityTooLarge, true},
		{"oversized feedback payload", "POST", "/sessions/a/feedback", string(oversizedFeedback), http.StatusRequestEntityTooLarge, true},
		{"malformed feedback JSON", "POST", "/sessions/a/feedback", "{bad", http.StatusBadRequest, true},
		{"invalid session id recommend", "GET", "/sessions/.hidden/recommend", "", http.StatusBadRequest, true},
		{"invalid session id click", "POST", "/sessions/.hidden/click", `{"chosen":[1],"shown":[[1],[2]]}`, http.StatusBadRequest, true},
		{"invalid session id feedback", "POST", "/sessions/.hidden/feedback", `{"winner":[1],"loser":[2]}`, http.StatusBadRequest, true},
		{"invalid session id snapshot get", "GET", "/sessions/.hidden/snapshot", "", http.StatusBadRequest, true},
		{"invalid session id snapshot post", "POST", "/sessions/.hidden/snapshot", `{"version":2}`, http.StatusBadRequest, true},
		{"wrong method recommend", "POST", "/sessions/a/recommend", "{}", http.StatusMethodNotAllowed, false},
		{"wrong method click", "GET", "/sessions/a/click", "", http.StatusMethodNotAllowed, false},
		{"unknown route", "GET", "/nope", "", http.StatusNotFound, false},
	}
	_, ts := testServerWith(t, 64, session.NewMemStore(), Options{MaxBodyBytes: 64 << 10})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (body %.120s)", resp.StatusCode, tc.wantStatus, b)
			}
			if tc.wantJSON {
				errorShape(t, resp)
			}
		})
	}
	// The rejected click on session z and feedback on session y recorded
	// nothing.
	for _, id := range []string{"z", "y"} {
		var st core.Stats
		if resp := getJSON(t, ts.URL+"/sessions/"+id+"/stats", &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s stats status %d", id, resp.StatusCode)
		}
		if st.Feedback != 0 {
			t.Errorf("session %s Feedback = %d after a rejected request, want 0", id, st.Feedback)
		}
	}
}

func TestSessionsListAndDelete(t *testing.T) {
	_, ts := testServer(t)
	postJSON(t, ts.URL+"/sessions/alice/feedback", FeedbackRequest{Winner: []int{0}, Loser: []int{1}}, nil)
	getJSON(t, ts.URL+"/sessions/bob/stats", nil)

	var list struct {
		Sessions []session.Info `json:"sessions"`
	}
	resp := getJSON(t, ts.URL+"/sessions", &list)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	if len(list.Sessions) != 2 || list.Sessions[0].ID != "alice" || list.Sessions[1].ID != "bob" {
		t.Fatalf("sessions list: %+v", list.Sessions)
	}
	if list.Sessions[0].Feedback != 1 {
		t.Errorf("alice feedback in list = %d", list.Sessions[0].Feedback)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/sessions/alice", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	getJSON(t, ts.URL+"/sessions", &list)
	for _, s := range list.Sessions {
		if s.ID == "alice" {
			t.Error("alice still listed after delete")
		}
	}
	// Deleted session state is gone: fresh stats.
	var st core.Stats
	getJSON(t, ts.URL+"/sessions/alice/stats", &st)
	if st.Feedback != 0 {
		t.Errorf("deleted alice Feedback = %d", st.Feedback)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/sessions/x/stats", nil)
	var out struct {
		Status   string        `json:"status"`
		Sessions session.Stats `json:"sessions"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &out)
	if resp.StatusCode != http.StatusOK || out.Status != "ok" {
		t.Fatalf("healthz: status %d, %+v", resp.StatusCode, out)
	}
	if out.Sessions.Live != 1 || out.Sessions.Capacity != 64 {
		t.Errorf("healthz counters: %+v", out.Sessions)
	}
}

func TestSnapshotRoundTripOverHTTP(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/sessions/alice/recommend", nil) // force sampling
	postJSON(t, ts.URL+"/sessions/alice/feedback", FeedbackRequest{Winner: []int{0}, Loser: []int{1}}, nil)

	resp, err := http.Get(ts.URL + "/sessions/alice/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap core.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Preferences) != 1 || len(snap.Samples) == 0 {
		t.Fatalf("snapshot content: %d prefs, %d samples", len(snap.Preferences), len(snap.Samples))
	}

	if snap.Version != 2 {
		t.Fatalf("exported snapshot version %d, want 2", snap.Version)
	}

	// Restore into a different session of a fresh server. Same catalogue,
	// so the restore report must show zero dropped state.
	_, ts2 := testServer(t)
	var report core.RestoreReport
	r2 := postJSON(t, ts2.URL+"/sessions/imported/snapshot", snap, &report)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", r2.StatusCode)
	}
	if report.DroppedItems != 0 || report.DroppedPrefs != 0 || report.Preferences != 1 {
		t.Fatalf("restore report = %+v, want 1 preference and no drops", report)
	}
	var st core.Stats
	getJSON(t, ts2.URL+"/sessions/imported/stats", &st)
	if st.Feedback != 1 {
		t.Errorf("restored Feedback = %d", st.Feedback)
	}
}

// TestSnapshotOversizedPoolRedrawn: a posted pool larger than the
// engine's SampleCount is not installed, so a client cannot multiply the
// searches of every later recommend of its session by posting one. The
// next recommend ranks a freshly drawn pool of SampleCount vectors.
func TestSnapshotOversizedPoolRedrawn(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/sessions/alice/recommend", nil) // draw the 80-sample pool
	var snap core.Snapshot
	getJSON(t, ts.URL+"/sessions/alice/snapshot", &snap)
	n := len(snap.Samples)
	if n == 0 {
		t.Fatal("precondition: snapshot carries no pool")
	}
	for i := 0; i < 14*n; i++ {
		snap.Samples = append(snap.Samples, snap.Samples[i%n])
		snap.Weights = append(snap.Weights, snap.Weights[i%n])
	}
	if r := postJSON(t, ts.URL+"/sessions/bob/snapshot", snap, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", r.StatusCode)
	}
	getJSON(t, ts.URL+"/sessions/bob/recommend", nil)
	var st core.Stats
	getJSON(t, ts.URL+"/sessions/bob/stats", &st)
	if got := st.RankSamples - snap.Stats.RankSamples; got != n {
		t.Fatalf("recommend after a %d-sample restore ranked %d vectors, want %d", len(snap.Samples), got, n)
	}
	var again core.Snapshot
	getJSON(t, ts.URL+"/sessions/bob/snapshot", &again)
	if len(again.Samples) != n {
		t.Fatalf("session pool has %d samples, want %d", len(again.Samples), n)
	}
}

// TestConcurrentSessionsOverHTTP drives 16 independent sessions in
// parallel through the HTTP layer — recommend, click, feedback — then
// verifies no cross-session state leakage: every session holds exactly
// the feedback it generated. Run with -race.
func TestConcurrentSessionsOverHTTP(t *testing.T) {
	const sessions = 16
	// Capacity below the session count, with a store: eviction and restore
	// churn under concurrent HTTP load.
	_, ts := testServerWith(t, 8, session.NewMemStore(), Options{})
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	clicked := make([]int, sessions) // feedback each session produced via click
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("user-%d", i)
			base := ts.URL + "/sessions/" + id
			var slate SlateJSON
			resp, err := http.Get(base + "/recommend")
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				errs <- fmt.Errorf("%s recommend: %d %.120s", id, resp.StatusCode, b)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&slate); err != nil {
				resp.Body.Close()
				errs <- err
				return
			}
			resp.Body.Close()
			shown := make([][]int, 0, len(slate.Recommended)+len(slate.Random))
			for _, p := range slate.Recommended {
				shown = append(shown, p.Items)
			}
			for _, p := range slate.Random {
				shown = append(shown, p.Items)
			}
			body, _ := json.Marshal(ClickRequest{Chosen: shown[i%len(shown)], Shown: shown})
			cresp, err := http.Post(base+"/click", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			var st core.Stats
			if err := json.NewDecoder(cresp.Body).Decode(&st); err != nil {
				cresp.Body.Close()
				errs <- err
				return
			}
			cresp.Body.Close()
			if cresp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s click: %d", id, cresp.StatusCode)
				return
			}
			clicked[i] = st.Feedback
			if clicked[i] == 0 {
				errs <- fmt.Errorf("%s click recorded no feedback", id)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Isolation: each session's final feedback equals what its own click
	// produced — nothing leaked in from the other 15 sessions.
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("user-%d", i)
		var st core.Stats
		resp := getJSON(t, ts.URL+"/sessions/"+id+"/stats", &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s stats: %d", id, resp.StatusCode)
		}
		if st.Feedback != clicked[i] {
			t.Errorf("%s Feedback = %d, want %d (cross-session leakage?)", id, st.Feedback, clicked[i])
		}
	}
}

// TestConcurrentSameSessionOverHTTP hammers one session from several
// goroutines; the per-session mutex must serialize them. Run with -race.
func TestConcurrentSameSessionOverHTTP(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/sessions/shared/recommend", nil)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			var err error
			defer func() { done <- err }()
			for j := 0; j < 5; j++ {
				switch (i + j) % 3 {
				case 0:
					var resp *http.Response
					resp, err = http.Get(ts.URL + "/sessions/shared/recommend")
					if resp != nil {
						resp.Body.Close()
					}
				case 1:
					var resp *http.Response
					resp, err = http.Get(ts.URL + "/sessions/shared/stats")
					if resp != nil {
						resp.Body.Close()
					}
				default:
					b, _ := json.Marshal(FeedbackRequest{
						Winner: []int{i % 10, 10 + j},
						Loser:  []int{20 + (i+j)%10},
					})
					var resp *http.Response
					resp, err = http.Post(ts.URL+"/sessions/shared/feedback", "application/json", bytes.NewReader(b))
					if resp != nil {
						resp.Body.Close()
					}
				}
				if err != nil {
					err = fmt.Errorf("worker %d op %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRestoreExceedsClickCap: a snapshot body is allowed to be
// larger than the click/feedback cap — the server must accept what its own
// GET snapshot emits.
func TestSnapshotRestoreExceedsClickCap(t *testing.T) {
	_, ts := testServerWith(t, 8, nil, Options{MaxBodyBytes: 2048})
	getJSON(t, ts.URL+"/sessions/a/recommend", nil) // draw the 80-sample pool
	resp, err := http.Get(ts.URL + "/sessions/a/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 2048 {
		t.Fatalf("precondition: snapshot only %d bytes, grow the pool", len(raw))
	}
	r2, err := http.Post(ts.URL+"/sessions/b/snapshot", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("restore of own snapshot rejected: %d", r2.StatusCode)
	}
}

// TestSlateWireZeroFieldsPresent: a zero score and epoch 0 are real
// values, not absent ones — the previous omitempty tags silently dropped
// both from the wire, making "score 0" indistinguishable from "no score"
// and epoch 0 of a static catalogue from a missing epoch.
func TestSlateWireZeroFieldsPresent(t *testing.T) {
	_, ts := testServer(t) // static catalogue: slates report epoch 0
	resp, err := http.Get(ts.URL + "/sessions/alice/recommend")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend = %d (%v)", resp.StatusCode, err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	ep, ok := keys["epoch"]
	if !ok {
		t.Fatal("slate wire form dropped epoch 0; the field must always be present")
	}
	if string(ep) != "0" {
		t.Fatalf("static slate epoch = %s, want 0", ep)
	}
	var slate SlateJSON
	if err := json.Unmarshal(raw, &slate); err != nil {
		t.Fatal(err)
	}
	if len(slate.Random) == 0 {
		t.Fatal("precondition: no exploration packages on the slate")
	}
	// Every package object — including the zero-scored exploration ones —
	// must carry a score key.
	var shape struct {
		Random []map[string]json.RawMessage `json:"random"`
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatal(err)
	}
	for i, p := range shape.Random {
		if _, ok := p["score"]; !ok {
			t.Fatalf("random package %d dropped its zero score from the wire", i)
		}
	}
	// And the values round-trip: decode → re-encode → decode preserves
	// zero scores and the zero epoch bit-for-bit.
	re, err := json.Marshal(slate)
	if err != nil {
		t.Fatal(err)
	}
	var back SlateJSON
	if err := json.Unmarshal(re, &back); err != nil {
		t.Fatal(err)
	}
	if back.Epoch != slate.Epoch || len(back.Random) != len(slate.Random) {
		t.Fatalf("slate did not round-trip: %+v vs %+v", back, slate)
	}
	for i := range slate.Random {
		if back.Random[i].Score != slate.Random[i].Score {
			t.Fatalf("random package %d score changed across round-trip", i)
		}
	}
}
